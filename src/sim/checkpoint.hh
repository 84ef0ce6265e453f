/**
 * @file
 * Versioned, checksummed binary checkpoints — the serialization
 * substrate for frame-granular checkpoint/restore of a running
 * simulation (gem5's m5.checkpoint analogue, scaled to this
 * simulator).
 *
 * Format of a checkpoint file:
 *
 *   offset  size  field
 *        0     4  magic "TDCP"
 *        4     4  format version (u32, little-endian)
 *        8     8  payload length in bytes (u64)
 *       16     4  CRC-32 of the payload (u32)
 *       20     n  payload
 *
 * The payload is a flat stream of typed values grouped into named
 * sections. Every section begins with a tag (its name) that the
 * reader verifies, so a writer/reader mismatch fails immediately at
 * the first wrong section instead of silently misinterpreting bytes.
 * All integers are little-endian; doubles are serialized via their
 * IEEE-754 bit pattern. Files are written to a temporary name and
 * atomically renamed into place, so a crash mid-write never leaves a
 * truncated checkpoint behind.
 *
 * Corruption (bad magic, wrong version, truncated or oversized
 * payload, CRC mismatch, or a read past the end) always throws a
 * typed ParseError (surface: checkpoint, exit code 7) carrying the
 * file name and byte offset — a restore from a damaged file must
 * never produce a silently wrong simulation, and the declared
 * payload length is validated against the actual file size before
 * any allocation, so a hostile header cannot trigger a huge
 * allocation either.
 */

#ifndef TEXDIST_SIM_CHECKPOINT_HH
#define TEXDIST_SIM_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

// Checkpoints persist through the VFS (scratchSuffix/atomicWriteFile
// live there now); included here so the many existing callers that
// reach those helpers via this header keep compiling.
#include "io/vfs.hh"

namespace texdist
{

/** Current checkpoint format version. */
constexpr uint32_t checkpointVersion = 2;

/** CRC-32 (IEEE 802.3 polynomial) of a byte buffer. */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

/**
 * Incremental FNV-1a digest over typed values — the per-frame state
 * digest recorded in run manifests and compared by --replay-verify.
 * Not cryptographic; a divergence detector, not a tamper seal.
 */
class StateDigest
{
  public:
    StateDigest &mix(uint64_t v);
    StateDigest &mix(double v);
    StateDigest &mix(const std::string &s);

    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ULL;
};

/** Accumulates a checkpoint payload and writes it out atomically. */
class CheckpointWriter
{
  public:
    /** Begin a named section; the reader must consume it by name. */
    void section(const std::string &name);

    void u8(uint8_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void f64(double v);
    void str(const std::string &s);

    /** A length-prefixed vector of u64 values. */
    void u64vec(const std::vector<uint64_t> &v);

    /**
     * Write header + payload to @p path via a temporary file and an
     * atomic rename (io::writeFileAtomic). A filesystem failure
     * rolls the scratch file back and throws IoError (exit 14) —
     * a torn checkpoint is never observable.
     */
    void writeFile(const std::string &path) const;

    /** The complete file image (header + payload) as bytes. */
    std::string bytes() const;

    /** Payload size so far (for tests and logs). */
    size_t payloadSize() const { return buf.size(); }

  private:
    std::vector<uint8_t> buf;
};

/** Validates and replays a checkpoint payload. */
class CheckpointReader
{
  public:
    /**
     * Read and validate @p path: magic, version, payload length and
     * CRC. Throws ParseError on any mismatch.
     */
    explicit CheckpointReader(const std::string &path);

    /**
     * Validate an in-memory checkpoint image (header + payload);
     * @p name labels diagnostics in place of a file path. This is
     * the constructor the fuzz harness drives.
     */
    CheckpointReader(const std::string &name, std::string image);

    /** Consume a section tag; throws unless it matches @p name. */
    void section(const std::string &name);

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    double f64();
    std::string str();
    std::vector<uint64_t> u64vec();

    /** True when the whole payload has been consumed. */
    bool atEnd() const { return pos == buf.size(); }

    const std::string &path() const { return _path; }

  private:
    void load(std::string image);
    const uint8_t *need(size_t n, const char *what);

    std::string _path;
    std::vector<uint8_t> buf;
    size_t pos = 0;
};

} // namespace texdist

#endif // TEXDIST_SIM_CHECKPOINT_HH
