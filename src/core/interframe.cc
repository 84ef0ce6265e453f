#include "core/interframe.hh"

namespace texdist
{

Scene
translateScene(const Scene &scene, float dx, float dy)
{
    Scene out;
    out.name = scene.name + "+pan";
    out.screenWidth = scene.screenWidth;
    out.screenHeight = scene.screenHeight;
    out.textures = scene.textures.clone();
    out.triangles = scene.triangles;
    for (TexTriangle &tri : out.triangles) {
        for (TexVertex &v : tri.v) {
            v.x += dx;
            v.y += dy;
        }
    }
    return out;
}

} // namespace texdist
