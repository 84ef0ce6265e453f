/**
 * @file
 * Typed errors for every untrusted input surface.
 *
 * The simulator ingests five kinds of untrusted bytes — binary
 * triangle traces, checkpoint blobs, JSON manifests, result CSVs and
 * the command line — and a malformed input must never abort, hang or
 * silently skew a sweep. Every parser in the tree reports malformed
 * input by throwing a ParseError: a structured diagnostic carrying
 * the surface it came from, the rule that was violated, and as much
 * location context as the parser knows (file, byte offset, record
 * index, field name). Drivers catch it at main() and exit with the
 * surface's documented code, so a supervisor like tools/sweep_runner
 * can tell "the trace file is corrupt" from "the machine config is
 * wrong" without scraping stderr.
 *
 * Process-wide exit-code contract (also in README.md):
 *
 *   code  meaning
 *      0  success
 *      1  usage / configuration error (including CLI parse errors)
 *      2  frame failed (deadlock under the fail policy, every node
 *         killed)
 *      3  interrupted by SIGINT/SIGTERM (partial results flushed)
 *      4  retired (was the removed auditor's; never reused)
 *      5  replay divergence (digest mismatch against a manifest)
 *      6  malformed trace file
 *      7  malformed checkpoint
 *      8  malformed JSON (config, run manifest)
 *      9  malformed result CSV
 *     10  fabric lease lost (a worker's claim was seized)
 *     11  fabric store corrupt (malformed store entry / lease file)
 *     12  fabric entries quarantined (fsck moved damaged entries)
 *     13  oracle violation (online invariant / metamorphic relation
 *         broken — see src/oracle and docs/ROBUSTNESS.md)
 *     14  I/O failure (ENOSPC, EIO, failed fsync/rename/close —
 *         the filesystem, not the bytes; see src/io and
 *         docs/ROBUSTNESS.md)
 *
 * This header is dependency-free and header-only on purpose: the
 * low-level sim library (checkpoint reader) and the high-level core
 * library (options, JSON, replay) both throw ParseError without any
 * link-order coupling between their static libraries.
 */

#ifndef TEXDIST_CORE_ERROR_HH
#define TEXDIST_CORE_ERROR_HH

#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace texdist
{

/** Which untrusted input surface a parse error came from. */
enum class ParseSurface : uint8_t
{
    Trace,      ///< binary triangle trace (src/trace)
    Checkpoint, ///< checkpoint blob (sim/checkpoint)
    Json,       ///< JSON config / run manifest (core/json)
    Csv,        ///< per-frame result CSV (core/replay)
    Cli,        ///< command-line options (core/options, src/fault)
    Fabric,     ///< result-store entry / lease file (src/fabric)
};

/** The class of rule a malformed input violated. */
enum class ParseRule : uint8_t
{
    Io,        ///< unreadable file or failed read
    Magic,     ///< wrong magic bytes / format marker
    Version,   ///< unsupported format version
    Truncated, ///< input ends before a required field
    Overrun,   ///< declared length exceeds the actual input
    Checksum,  ///< CRC / digest mismatch
    Syntax,    ///< malformed token or structure
    Range,     ///< value outside its legal range
    NonFinite, ///< NaN or infinity where a finite number is required
    Limit,     ///< structural limit exceeded (nesting depth, counts)
    Duplicate, ///< duplicate key or name
    Encoding,  ///< invalid UTF-8 or escape sequence
    Mismatch,  ///< cross-field inconsistency (count vs size, section)
    Type,      ///< value has the wrong type for its slot
    Unknown,   ///< unknown option, key or enumerator
};

constexpr const char *
to_string(ParseSurface s)
{
    switch (s) {
      case ParseSurface::Trace: return "trace";
      case ParseSurface::Checkpoint: return "checkpoint";
      case ParseSurface::Json: return "json";
      case ParseSurface::Csv: return "csv";
      case ParseSurface::Cli: return "cli";
      case ParseSurface::Fabric: return "fabric";
    }
    return "?";
}

constexpr const char *
to_string(ParseRule r)
{
    switch (r) {
      case ParseRule::Io: return "io";
      case ParseRule::Magic: return "magic";
      case ParseRule::Version: return "version";
      case ParseRule::Truncated: return "truncated";
      case ParseRule::Overrun: return "overrun";
      case ParseRule::Checksum: return "checksum";
      case ParseRule::Syntax: return "syntax";
      case ParseRule::Range: return "range";
      case ParseRule::NonFinite: return "non-finite";
      case ParseRule::Limit: return "limit";
      case ParseRule::Duplicate: return "duplicate";
      case ParseRule::Encoding: return "encoding";
      case ParseRule::Mismatch: return "mismatch";
      case ParseRule::Type: return "type";
      case ParseRule::Unknown: return "unknown";
    }
    return "?";
}

/** The documented exit code for a malformed input on @p surface. */
constexpr int
parseErrorExitCode(ParseSurface surface)
{
    switch (surface) {
      case ParseSurface::Cli: return 1;
      case ParseSurface::Trace: return 6;
      case ParseSurface::Checkpoint: return 7;
      case ParseSurface::Json: return 8;
      case ParseSurface::Csv: return 9;
      case ParseSurface::Fabric: return 11;
    }
    return 1;
}

/**
 * Fabric runtime conditions — distributed-sweep failures that are
 * not parse errors: a worker's lease on a config was seized by a
 * peer, a store entry failed validation where strict handling was
 * requested, or an fsck pass had to quarantine damaged entries.
 * Each carries its own documented exit code so a supervisor can
 * tell "this worker was superseded" (restart is pointless) from
 * "the shared store is damaged" (stop the fleet and fsck).
 */
enum class FabricFault : uint8_t
{
    LeaseLost,   ///< this worker's claim file was seized by a peer
    StoreCorrupt,///< a store entry failed validation (strict mode)
    Quarantined, ///< fsck moved one or more damaged entries aside
};

constexpr const char *
to_string(FabricFault f)
{
    switch (f) {
      case FabricFault::LeaseLost: return "lease-lost";
      case FabricFault::StoreCorrupt: return "store-corrupt";
      case FabricFault::Quarantined: return "quarantined";
    }
    return "?";
}

/** The documented exit code for a fabric fault. */
constexpr int
fabricExitCode(FabricFault f)
{
    switch (f) {
      case FabricFault::LeaseLost: return 10;
      case FabricFault::StoreCorrupt: return 11;
      case FabricFault::Quarantined: return 12;
    }
    return 11;
}

/**
 * A fabric runtime failure. Like ParseError this is header-only and
 * dependency-free so the fabric library, the sweep runner and the
 * chaos harness can all throw and catch it without link coupling.
 */
class FabricError : public std::exception
{
  public:
    FabricError(FabricFault fault, std::string message)
        : _fault(fault), _message(std::move(message))
    {
        _what = std::string("fabric ") + to_string(_fault) + ": " +
                _message;
    }

    FabricFault fault() const { return _fault; }
    const std::string &message() const { return _message; }
    int exitCode() const { return fabricExitCode(_fault); }
    const std::string &describe() const { return _what; }

    const char *what() const noexcept override
    {
        return _what.c_str();
    }

  private:
    FabricFault _fault;
    std::string _message;
    std::string _what;
};

/** The documented exit code for an oracle invariant violation. */
constexpr int oracleExitCode = 13;

/** The documented exit code for a filesystem-level I/O failure. */
constexpr int ioErrorExitCode = 14;

/** Which VFS operation an I/O failure struck (src/io). */
enum class IoOp : uint8_t
{
    Open,   ///< open / create (including O_EXCL claims)
    Read,   ///< read from an open descriptor
    Write,  ///< write to an open descriptor
    Fsync,  ///< fsync / fdatasync durability barrier
    Close,  ///< close (a failed close loses buffered bytes)
    Rename, ///< atomic-publication rename
    Mkdir,  ///< directory creation
    Unlink, ///< file removal (rollback, release)
    List,   ///< directory enumeration
};

constexpr const char *
to_string(IoOp op)
{
    switch (op) {
      case IoOp::Open: return "open";
      case IoOp::Read: return "read";
      case IoOp::Write: return "write";
      case IoOp::Fsync: return "fsync";
      case IoOp::Close: return "close";
      case IoOp::Rename: return "rename";
      case IoOp::Mkdir: return "mkdir";
      case IoOp::Unlink: return "unlink";
      case IoOp::List: return "list";
    }
    return "?";
}

/**
 * A filesystem-level I/O failure: the bytes may be fine, the disk is
 * not. Distinct from ParseError(rule: Io) — that means "the input we
 * read is unreadable/short", this means "the operating system failed
 * the operation" (ENOSPC, EIO, a failed fsync or rename). Carries
 * the operation, the path and the errno so a supervisor can tell a
 * full disk from a dying one, plus an `injected` flag set by the
 * deterministic fault injector so test harnesses can assert a
 * failure was the scheduled one. Header-only and dependency-free
 * like ParseError: src/io throws it, every persistence surface above
 * propagates it, and drivers map it to exit code 14 at main().
 */
class IoError : public std::exception
{
  public:
    IoError(IoOp op, std::string path, int errnum,
            std::string message)
        : _op(op), _path(std::move(path)), _errno(errnum),
          _message(std::move(message))
    {
        _what = std::string("io error: ") + to_string(_op) + " '" +
                _path + "': " + _message;
        if (_errno != 0)
            _what += std::string(" [errno ") +
                     std::to_string(_errno) + "]";
        if (_injected)
            _what += " [injected]";
    }

    /** Mark this failure as scheduled by the fault injector. */
    IoError &
    injected()
    {
        if (!_injected) {
            _injected = true;
            _what += " [injected]";
        }
        return *this;
    }

    IoOp op() const { return _op; }
    const std::string &path() const { return _path; }
    int errnum() const { return _errno; }
    const std::string &message() const { return _message; }
    bool wasInjected() const { return _injected; }
    int exitCode() const { return ioErrorExitCode; }
    const std::string &describe() const { return _what; }

    const char *what() const noexcept override
    {
        return _what.c_str();
    }

  private:
    IoOp _op;
    std::string _path;
    int _errno = 0;
    std::string _message;
    bool _injected = false;
    std::string _what;
};

/**
 * An oracle invariant violation: the simulation produced state that
 * contradicts a conservation law, structural invariant or
 * metamorphic relation the model guarantees (src/oracle). It
 * carries the frame / cycle / node context of the first violation,
 * so a supervisor can bisect a sweep down to the exact frame that
 * first went wrong. Header-only like ParseError/FabricError: the
 * oracle library, tools/texdist_sim and tools/texmeta all throw and
 * catch it without link coupling.
 */
class OracleError : public std::exception
{
  public:
    /**
     * @param frame   frame index the violation was detected at
     * @param node    first offending node, or -1 for machine-wide
     * @param cycle   simulation tick of the frame boundary checked
     * @param violations one line per broken invariant
     */
    OracleError(uint32_t frame, int32_t node, uint64_t cycle,
                std::vector<std::string> violations)
        : _frame(frame), _node(node), _cycle(cycle),
          _violations(std::move(violations))
    {
        _what = "oracle violation at frame " + std::to_string(_frame);
        if (_node >= 0)
            _what += ", node " + std::to_string(_node);
        _what += ", cycle " + std::to_string(_cycle) + ":";
        for (const std::string &v : _violations)
            _what += "\n  " + v;
    }

    uint32_t frame() const { return _frame; }

    /** First offending node, or -1 for a machine-wide violation. */
    int32_t node() const { return _node; }

    uint64_t cycle() const { return _cycle; }
    const std::vector<std::string> &violations() const
    {
        return _violations;
    }

    int exitCode() const { return oracleExitCode; }
    const std::string &describe() const { return _what; }

    const char *what() const noexcept override
    {
        return _what.c_str();
    }

  private:
    uint32_t _frame;
    int32_t _node;
    uint64_t _cycle;
    std::vector<std::string> _violations;
    std::string _what;
};

/**
 * A malformed-input diagnostic. Built fluently at the throw site:
 *
 *   throw ParseError(ParseSurface::Trace, ParseRule::NonFinite,
 *                    "value is NaN")
 *       .at(offset).record(17).field("vertex u");
 *
 * and annotated with the file name by whoever knows it:
 *
 *   catch (ParseError &e) { throw e.in(path); }
 */
class ParseError : public std::exception
{
  public:
    ParseError(ParseSurface surface, ParseRule rule,
               std::string message)
        : _surface(surface), _rule(rule),
          _message(std::move(message))
    {
        render();
    }

    /** Annotate with the file (or input name) being parsed. */
    ParseError &
    in(std::string file)
    {
        if (_file.empty())
            _file = std::move(file);
        render();
        return *this;
    }

    /** Annotate with the byte offset of the violation. */
    ParseError &
    at(uint64_t offset)
    {
        _offset = offset;
        render();
        return *this;
    }

    /** Annotate with the record index (trace record, CSV row...). */
    ParseError &
    record(int64_t index)
    {
        _record = index;
        render();
        return *this;
    }

    /** Annotate with the field or flag name being parsed. */
    ParseError &
    field(std::string name)
    {
        _field = std::move(name);
        render();
        return *this;
    }

    ParseSurface surface() const { return _surface; }
    ParseRule rule() const { return _rule; }
    const std::string &message() const { return _message; }
    const std::string &file() const { return _file; }
    const std::optional<uint64_t> &offset() const { return _offset; }
    const std::optional<int64_t> &recordIndex() const
    {
        return _record;
    }
    const std::string &fieldName() const { return _field; }

    /** The documented process exit code for this surface. */
    int exitCode() const { return parseErrorExitCode(_surface); }

    /**
     * The full one-line diagnostic:
     * "<surface> parse error in <file> at byte N, record R,
     *  field 'f': <message> [rule: <rule>]"
     */
    const std::string &describe() const { return _what; }

    const char *what() const noexcept override
    {
        return _what.c_str();
    }

  private:
    void
    render()
    {
        _what = std::string(to_string(_surface)) + " parse error";
        if (!_file.empty())
            _what += " in " + _file;
        if (_offset)
            _what += " at byte " + std::to_string(*_offset);
        if (_record)
            _what += ", record " + std::to_string(*_record);
        if (!_field.empty())
            _what += ", field '" + _field + "'";
        _what += ": " + _message;
        _what += std::string(" [rule: ") + to_string(_rule) + "]";
    }

    ParseSurface _surface;
    ParseRule _rule;
    std::string _message;
    std::string _file;
    std::optional<uint64_t> _offset;
    std::optional<int64_t> _record;
    std::string _field;
    std::string _what;
};

/**
 * A value or a ParseError — the non-throwing face of the parsers,
 * for callers (the fuzz harness, probing loaders) that treat a
 * malformed input as data rather than as a reason to exit.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : _value(std::move(value)) {}
    Result(ParseError error) : _error(std::move(error)) {}

    bool ok() const { return _value.has_value(); }
    explicit operator bool() const { return ok(); }

    const T &value() const & { return *_value; }
    T &&takeValue() { return std::move(*_value); }
    const ParseError &error() const { return *_error; }

  private:
    std::optional<T> _value;
    std::optional<ParseError> _error;
};

/** Run a throwing parser, capturing ParseError into a Result. */
template <typename F>
auto
tryParse(F &&f) -> Result<decltype(f())>
{
    using R = Result<decltype(f())>;
    try {
        return R(f());
    } catch (ParseError &e) {
        return R(std::move(e));
    }
}

/**
 * Wrap a driver's main() body: a ParseError or IoError escaping the
 * body is printed as a one-line fatal diagnostic and becomes the
 * documented exit code (the surface's for a ParseError, 14 for an
 * IoError). Everything else propagates unchanged.
 */
template <typename F>
int
guardParseErrors(F &&body)
{
    try {
        return body();
    } catch (const ParseError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.describe().c_str());
        return e.exitCode();
    } catch (const IoError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.describe().c_str());
        return e.exitCode();
    }
}

} // namespace texdist

#endif // TEXDIST_CORE_ERROR_HH
