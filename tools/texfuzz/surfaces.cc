#include "surfaces.hh"

#include <sstream>
#include <stdexcept>

#include "core/options.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "fabric/store.hh"
#include "scene/builder.hh"
#include "sim/checkpoint.hh"
#include "trace/trace.hh"

using namespace texdist;

namespace texfuzz
{

namespace
{

/**
 * The scene and machine every checkpoint input is restored into —
 * small enough to rebuild per iteration, real enough that a valid
 * checkpoint replays the full node/cache/bus restore path.
 */
Scene
fuzzScene()
{
    SceneBuilder b("fuzz-wall", 64, 64, 7);
    auto pool = b.makeTexturePool(3, 32, 32);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    return b.take();
}

MachineConfig
fuzzConfig()
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.tileParam = 8;
    cfg.cacheKind = CacheKind::SetAssoc;
    cfg.busTexelsPerCycle = 1.0;
    return cfg;
}

void
restoreCheckpointImage(const std::string &input)
{
    static const Scene scene = fuzzScene();
    static const MachineConfig cfg = fuzzConfig();
    CheckpointReader r("fuzz-checkpoint", input);
    SequenceMachine machine(scene, cfg);
    machine.restore(r);
}

/** Newline-separated argv — the on-disk encoding of a CLI input. */
std::vector<std::string>
splitArgs(const std::string &input)
{
    std::vector<std::string> args;
    std::string arg;
    for (char c : input) {
        if (c == '\n') {
            if (!arg.empty())
                args.push_back(arg);
            arg.clear();
        } else {
            arg.push_back(c);
        }
    }
    if (!arg.empty())
        args.push_back(arg);
    return args;
}

std::string
checkpointSeed()
{
    Scene scene = fuzzScene();
    SequenceMachine machine(scene, fuzzConfig());
    CheckpointWriter w;
    machine.serialize(w);
    return w.bytes();
}

std::string
traceSeed()
{
    std::ostringstream os;
    writeTrace(fuzzScene(), os);
    return os.str();
}

std::string
fabricSeed()
{
    std::vector<std::string> args = {"--scene=quake", "--procs=4",
                                     "--dist=block", "--param=8"};
    fabric::StoreKey key = fabric::computeStoreKey(args, 0);
    std::string meta = fabric::canonicalConfigJson(
        args, 0, fabric::fabricCodeVersion);
    std::string payload =
        "frame,cycles,pixels,texels_fetched,triangles,"
        "texel_fragment_ratio,imbalance_pct,bus_util,"
        "faults_injected,degraded,failed,digest\n"
        "0,123456,4096,8192,128,2.0,1.5,0.25,0,0,0,"
        "00000000deadbeef\n";
    return fabric::encodeStoreEntry(key, meta, payload);
}

void
put32(std::string &buf, size_t at, uint32_t v)
{
    for (size_t i = 0; i < 4; ++i)
        buf[at + i] = char(uint8_t(v >> (8 * i)));
}

void
put64(std::string &buf, size_t at, uint64_t v)
{
    for (size_t i = 0; i < 8; ++i)
        buf[at + i] = char(uint8_t(v >> (8 * i)));
}

} // namespace

std::string
repairInput(ParseSurface surface, std::string input, FuzzRng &rng)
{
    if (surface == ParseSurface::Fabric) {
        // Same idea as the checkpoint repair below: one run in four
        // keeps the mutated header so the magic/version/CRC guards
        // stay exercised, the rest get a coherent envelope so the
        // length and split validation runs against fuzzed fields.
        if (input.size() < 36 || rng.oneIn(4))
            return input;
        input[0] = 'T';
        input[1] = 'D';
        input[2] = 'R';
        input[3] = 'S';
        put32(input, 4, fabric::storeFormatVersion);
        put32(input, 32,
              crc32(input.data() + 36, input.size() - 36));
        return input;
    }
    if (surface != ParseSurface::Checkpoint || input.size() < 20)
        return input;
    // One run in four keeps whatever the mutator did to the header,
    // so magic/version/length/CRC validation stays exercised; the
    // rest get a coherent header and fuzz the payload decoders.
    if (rng.oneIn(4))
        return input;
    input[0] = 'T';
    input[1] = 'D';
    input[2] = 'C';
    input[3] = 'P';
    put32(input, 4, checkpointVersion);
    put64(input, 8, uint64_t(input.size() - 20));
    put32(input, 16,
          crc32(input.data() + 20, input.size() - 20));
    return input;
}

ParseSurface
surfaceFromName(const std::string &name)
{
    if (name == "trace")
        return ParseSurface::Trace;
    if (name == "checkpoint")
        return ParseSurface::Checkpoint;
    if (name == "json")
        return ParseSurface::Json;
    if (name == "csv")
        return ParseSurface::Csv;
    if (name == "cli")
        return ParseSurface::Cli;
    if (name == "fabric")
        return ParseSurface::Fabric;
    throw ParseError(ParseSurface::Cli, ParseRule::Unknown,
                     "unknown surface '" + name +
                         "' (want trace, checkpoint, json, csv, "
                         "cli or fabric)")
        .field("--surface");
}

std::vector<ParseSurface>
allSurfaces()
{
    return {ParseSurface::Trace, ParseSurface::Checkpoint,
            ParseSurface::Json, ParseSurface::Csv,
            ParseSurface::Cli, ParseSurface::Fabric};
}

std::vector<std::string>
makeSeeds(ParseSurface surface)
{
    switch (surface) {
      case ParseSurface::Trace:
        return {traceSeed()};
      case ParseSurface::Checkpoint:
        return {checkpointSeed()};
      case ParseSurface::Json:
        return {
            // A complete, valid run manifest...
            R"({"format":"texdist-run-manifest","version":1,)"
            R"("scene":"fuzz-wall","config":"procs=2 dist=block",)"
            R"("fault_plan":"none",)"
            R"("fault_seed":"0000000000000007","frames":2,)"
            R"("pan_dx":0.5,"pan_dy":-0.25,"interrupted":false,)"
            R"("frame_digests":["00000000deadbeef",)"
            R"("00000000cafef00d"]})",
            // ...and one leaning on escapes, unicode and an
            // interrupted digest prefix, to seed the string and
            // array paths.
            "{\"format\":\"texdist-run-manifest\",\"version\":1,"
            "\"scene\":\"pot \\u00e9\\n\\t\\\"q\\\"\",\"config\":"
            "\"procs=16\",\"fault_plan\":\"slow-node:3,at=10\","
            "\"fault_seed\":\"ffffffffffffffff\",\"frames\":8,"
            "\"pan_dx\":1e-3,\"pan_dy\":2.5E2,\"interrupted\":true,"
            "\"frame_digests\":[\"0123456789abcdef\"]}",
        };
      case ParseSurface::Csv:
        return {
            "frame,cycles,pixels,texels_fetched,triangles,"
            "texel_fragment_ratio,imbalance_pct,bus_util,"
            "faults_injected,degraded,failed,digest\n"
            "0,123456,4096,8192,128,2.0,1.5,0.25,0,0,0,"
            "00000000deadbeef\n"
            "1,123999,4096,8200,128,2.002,1.25,0.5,1,1,0,"
            "00000000cafef00d\n",
        };
      case ParseSurface::Cli:
        return {
            "--scene=quake\n--procs=16\n--dist=block\n--param=16\n"
            "--cache-kb=16\n--bus=2",
            "--procs=8\n--dist=sli\n--param=4\n--frames=4\n"
            "--pan=2\n--checkpoint-every=2\n--l2-kb=1024",
            "--scene=flight\n--scale=0.5\n"
            "--fault=slow-node:rand,at=10000,x=8\n"
            "--fault-seed=99",
            "--scene=quake\n--procs=4\n"
            "--io-fault=seed:7;enospc:.ckpt,after=4096\n"
            "--io-fault=rename-fail:.res,nth=rand,count=2\n"
            "--io-fault=eintr,every=3,times=25\n"
            "--io-fault=short-write:sweep,nth=1;fsync-fail",
        };
      case ParseSurface::Fabric:
        return {fabricSeed()};
    }
    return {};
}

ParseReport
runParse(ParseSurface surface, const std::string &input)
{
    ParseReport report;
    try {
        switch (surface) {
          case ParseSurface::Trace: {
            std::istringstream is(input);
            readTrace(is);
            break;
          }
          case ParseSurface::Checkpoint:
            restoreCheckpointImage(input);
            break;
          case ParseSurface::Json:
            RunManifest::fromJsonText(input, "fuzz-manifest");
            break;
          case ParseSurface::Csv:
            parseFrameCsvText(input, "fuzz-results");
            break;
          case ParseSurface::Cli:
            SimOptions::parse(splitArgs(input));
            break;
          case ParseSurface::Fabric:
            fabric::decodeStoreEntry(input, "fuzz-store-entry");
            break;
        }
    } catch (const ParseError &e) {
        report.outcome = Outcome::Rejected;
        report.exitCode = e.exitCode();
        report.diagnostic = e.describe();
        // A parser may legitimately cross surfaces (a manifest's
        // JSON layer, a CSV's digest cells), but the exit code must
        // stay in the documented parse-error range — 1 and 6-9,
        // plus 11 for store entries — anything else means an input
        // surface leaked an untyped failure.
        if (report.exitCode < 1 ||
            (report.exitCode > 9 && report.exitCode != 11)) {
            report.outcome = Outcome::Finding;
            report.diagnostic =
                "ParseError with out-of-contract exit code " +
                std::to_string(report.exitCode) + ": " +
                e.describe();
        }
        return report;
    } catch (const std::exception &e) {
        report.outcome = Outcome::Finding;
        report.exitCode = 70; // EX_SOFTWARE: untyped escape
        report.diagnostic =
            std::string("untyped exception escaped the parser: ") +
            e.what();
        return report;
    }
    return report;
}

} // namespace texfuzz
