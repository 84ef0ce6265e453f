/**
 * @file
 * Inter-frame texture locality — the paper's closing question.
 *
 * "The user often translates the viewpoint between frames. If this
 * translation was greater than the tile size, the L2 would reload
 * different textures in the next frame and the efficiency would be
 * reduced." The experiment derives frame N+1 from frame N by a
 * screen-space camera pan (the textures stay attached to the
 * geometry, so the same texels appear at shifted pixels) and renders
 * both on one SequenceMachine, whose caches stay warm in between.
 */

#ifndef TEXDIST_CORE_INTERFRAME_HH
#define TEXDIST_CORE_INTERFRAME_HH

#include "scene/scene.hh"

namespace texdist
{

/**
 * Frame N+1 after a camera pan of (dx, dy) pixels: every triangle
 * translated on screen, texture coordinates untouched (the texture
 * is bound to the surfaces, so a node that kept its texels cached
 * only benefits if the same texels still fall in its tiles). The
 * texture set is cloned at identical addresses.
 */
Scene translateScene(const Scene &scene, float dx, float dy);

} // namespace texdist

#endif // TEXDIST_CORE_INTERFRAME_HH
