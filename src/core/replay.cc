#include "core/replay.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/json.hh"
#include "core/metrics.hh"
#include "io/vfs.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace texdist
{

uint64_t
digestFrame(const FrameResult &frame)
{
    StateDigest d;
    d.mix(frame.frameTime);
    d.mix(frame.totalPixels);
    d.mix(frame.totalTexelsFetched);
    d.mix(frame.trianglesDispatched);
    d.mix(uint64_t(frame.degraded));
    d.mix(uint64_t(frame.failed));
    d.mix(uint64_t(frame.faultStats.injected));
    d.mix(uint64_t(frame.faultStats.nodesKilled));
    d.mix(frame.nodes.size());
    for (const NodeResult &node : frame.nodes) {
        d.mix(node.pixels);
        d.mix(node.triangles);
        d.mix(node.finishTime);
        d.mix(node.cacheAccesses);
        d.mix(node.cacheMisses);
        d.mix(node.texelsFetched);
        d.mix(node.stallCycles);
        d.mix(node.idleCycles);
        d.mix(node.setupBoundTriangles);
        d.mix(node.setupWaitCycles);
        d.mix(node.fifoMaxOccupancy);
    }
    return d.value();
}

std::string
digestHex(uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

uint64_t
digestFromHex(const std::string &hex, ParseSurface surface)
{
    if (hex.size() != 16)
        throw ParseError(surface, ParseRule::Syntax,
                         "bad digest '" + hex +
                             "': expected 16 hex digits")
            .field("digest");
    uint64_t v = 0;
    for (char c : hex) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= uint64_t(c - 'a' + 10);
        else
            throw ParseError(surface, ParseRule::Syntax,
                             "bad digest '" + hex +
                                 "': expected 16 lowercase hex "
                                 "digits")
                .field("digest");
    }
    return v;
}

void
RunManifest::save(const std::string &path) const
{
    JsonValue root = JsonValue::makeObject();
    root.set("format", JsonValue::makeString("texdist-run-manifest"));
    root.set("version", JsonValue::makeNumber(1));
    root.set("scene", JsonValue::makeString(scene));
    root.set("config", JsonValue::makeString(config));
    root.set("fault_plan", JsonValue::makeString(faultPlan));
    // Hex string: a 64-bit seed does not fit a JSON double exactly.
    root.set("fault_seed", JsonValue::makeString(digestHex(faultSeed)));
    root.set("frames", JsonValue::makeNumber(frames));
    root.set("pan_dx", JsonValue::makeNumber(panDx));
    root.set("pan_dy", JsonValue::makeNumber(panDy));
    root.set("interrupted", JsonValue::makeBool(interrupted));
    JsonValue list = JsonValue::makeArray();
    for (uint64_t digest : digests)
        list.append(JsonValue::makeString(digestHex(digest)));
    root.set("frame_digests", std::move(list));
    atomicWriteFile(path, root.dump());
}

namespace
{

/** Semantic validation shared by load() and fromJsonText(). */
RunManifest
manifestFromJson(const JsonValue &root)
{
    const std::string &format = root.at("format").asString();
    if (format != "texdist-run-manifest")
        throw ParseError(ParseSurface::Json, ParseRule::Magic,
                         "not a run manifest (format '" + format +
                             "')")
            .field("format");
    uint64_t version = root.at("version").asU64();
    if (version != 1)
        throw ParseError(ParseSurface::Json, ParseRule::Version,
                         "unsupported manifest version " +
                             std::to_string(version))
            .field("version");

    RunManifest m;
    m.scene = root.at("scene").asString();
    m.config = root.at("config").asString();
    m.faultPlan = root.at("fault_plan").asString();
    m.faultSeed = digestFromHex(root.at("fault_seed").asString());
    uint64_t frames = root.at("frames").asU64();
    if (frames == 0 || frames > (1ull << 32))
        throw ParseError(ParseSurface::Json, ParseRule::Range,
                         "implausible frame count " +
                             std::to_string(frames))
            .field("frames");
    m.frames = uint32_t(frames);
    m.panDx = root.at("pan_dx").asNumber();
    m.panDy = root.at("pan_dy").asNumber();
    m.interrupted = root.at("interrupted").asBool();
    for (const JsonValue &entry : root.at("frame_digests").items())
        m.digests.push_back(digestFromHex(entry.asString()));
    if (m.digests.size() > m.frames ||
        (!m.interrupted && m.digests.size() != m.frames))
        throw ParseError(ParseSurface::Json, ParseRule::Mismatch,
                         (m.interrupted
                              ? std::string("interrupted run with ")
                              : std::string("complete run with ")) +
                             std::to_string(m.digests.size()) +
                             " digests for " +
                             std::to_string(m.frames) + " frames")
            .field("frame_digests");
    return m;
}

} // namespace

RunManifest
RunManifest::load(const std::string &path)
{
    JsonValue root = JsonValue::parseFile(path);
    try {
        return manifestFromJson(root);
    } catch (ParseError &e) {
        throw e.in(path);
    }
}

RunManifest
RunManifest::fromJsonText(const std::string &text,
                          const std::string &what)
{
    try {
        return manifestFromJson(JsonValue::parse(text));
    } catch (ParseError &e) {
        throw e.in(what);
    }
}

namespace
{

/** The result-CSV header: "frame", the table's columns, "digest". */
std::vector<std::string>
csvHeader()
{
    std::vector<std::string> out{"frame"};
    for (const Metric *m : csvMetrics())
        out.emplace_back(m->csvColumn);
    out.emplace_back("digest");
    return out;
}

[[noreturn]] void
csvFail(ParseRule rule, const std::string &msg, uint64_t offset,
        int64_t row, const char *column)
{
    ParseError e(ParseSurface::Csv, rule, msg);
    e.at(offset);
    if (row >= 0)
        e.record(row);
    if (column)
        e.field(column);
    throw e;
}

/** Strict decimal u64 for one CSV cell. */
uint64_t
csvU64(const std::string &tok, uint64_t offset, int64_t row,
       const char *column)
{
    if (tok.empty() ||
        tok.find_first_not_of("0123456789") != std::string::npos)
        csvFail(ParseRule::Syntax,
                "expected a non-negative integer, got '" + tok + "'",
                offset, row, column);
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (errno == ERANGE)
        csvFail(ParseRule::Range, "value out of range: '" + tok + "'",
                offset, row, column);
    return uint64_t(v);
}

/** Strict finite double for one CSV cell. */
double
csvF64(const std::string &tok, uint64_t offset, int64_t row,
       const char *column)
{
    if (tok.empty())
        csvFail(ParseRule::Syntax, "expected a number, got ''",
                offset, row, column);
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0')
        csvFail(ParseRule::Syntax,
                "expected a number, got '" + tok + "'", offset, row,
                column);
    if (errno == ERANGE || !std::isfinite(v))
        csvFail(ParseRule::Range,
                "value must be finite and in range: '" + tok + "'",
                offset, row, column);
    return v;
}

/** 0 or 1 for the boolean columns. */
bool
csvBool(const std::string &tok, uint64_t offset, int64_t row,
        const char *column)
{
    if (tok == "0")
        return false;
    if (tok == "1")
        return true;
    csvFail(ParseRule::Range, "expected 0 or 1, got '" + tok + "'",
            offset, row, column);
}

/** Split one line into cells, recording each cell's byte offset. */
void
splitCsvLine(const std::string &line, uint64_t lineOffset,
             std::vector<std::string> &cells,
             std::vector<uint64_t> &offsets)
{
    cells.clear();
    offsets.clear();
    size_t start = 0;
    while (true) {
        size_t comma = line.find(',', start);
        offsets.push_back(lineOffset + start);
        if (comma == std::string::npos) {
            cells.push_back(line.substr(start));
            return;
        }
        cells.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

std::vector<FrameCsvRow>
parseFrameCsv(const std::string &text)
{
    const std::vector<std::string> columns = csvHeader();
    const std::vector<const Metric *> metrics = csvMetrics();
    std::vector<FrameCsvRow> rows;
    std::vector<std::string> cells;
    std::vector<uint64_t> offsets;
    size_t pos = 0;
    int64_t row = -1; // -1 while on the header line
    bool sawHeader = false;
    while (pos <= text.size()) {
        if (pos == text.size()) {
            if (!sawHeader)
                csvFail(ParseRule::Truncated,
                        "empty result CSV (missing header)", 0, -1,
                        nullptr);
            break;
        }
        size_t eol = text.find('\n', pos);
        uint64_t lineOffset = pos;
        std::string line =
            text.substr(pos, eol == std::string::npos
                                 ? std::string::npos
                                 : eol - pos);
        pos = eol == std::string::npos ? text.size() : eol + 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;

        splitCsvLine(line, lineOffset, cells, offsets);
        if (cells.size() != columns.size())
            csvFail(ParseRule::Mismatch,
                    "expected " + std::to_string(columns.size()) +
                        " columns, got " +
                        std::to_string(cells.size()),
                    lineOffset, row, nullptr);

        if (!sawHeader) {
            for (size_t c = 0; c < columns.size(); ++c)
                if (cells[c] != columns[c])
                    csvFail(ParseRule::Magic,
                            "bad header: expected column '" +
                                columns[c] + "', got '" + cells[c] +
                                "'",
                            offsets[c], -1, columns[c].c_str());
            sawHeader = true;
            row = 0;
            continue;
        }

        FrameCsvRow r;
        uint64_t frame = csvU64(cells[0], offsets[0], row, "frame");
        if (frame > 0xffffffffull)
            csvFail(ParseRule::Range,
                    "frame number out of range: '" + cells[0] + "'",
                    offsets[0], row, "frame");
        r.frame = uint32_t(frame);
        if (!rows.empty() && r.frame <= rows.back().frame)
            csvFail(ParseRule::Mismatch,
                    "frame numbers must be strictly increasing (" +
                        std::to_string(rows.back().frame) +
                        " then " + std::to_string(r.frame) + ")",
                    offsets[0], row, "frame");
        size_t c = 1;
        for (const Metric *m : metrics) {
            // An accessor's kind does not depend on the frame it reads.
            MetricValue v = m->frame(FrameResult());
            if (v.kind == MetricKind::Real)
                v.real = csvF64(cells[c], offsets[c], row, m->csvColumn);
            else if (v.kind == MetricKind::Flag)
                v.count = csvBool(cells[c], offsets[c], row, m->csvColumn);
            else
                v.count = csvU64(cells[c], offsets[c], row, m->csvColumn);
            m->parsed(r, v);
            ++c;
        }
        try {
            r.digest = digestFromHex(cells[c], ParseSurface::Csv);
        } catch (ParseError &e) {
            throw e.at(offsets[c]).record(row);
        }
        rows.push_back(r);
        ++row;
    }
    return rows;
}

} // namespace

void
frameCsvHeader(CsvWriter &csv)
{
    csv.header(csvHeader());
}

void
frameCsvRow(CsvWriter &csv, uint32_t frame, const FrameResult &r,
            uint64_t digest)
{
    csv.beginRow(std::to_string(frame));
    for (const Metric *m : csvMetrics()) {
        const MetricValue v = m->frame(r);
        if (v.kind == MetricKind::Real)
            csv.value(v.real);
        else
            csv.value(std::to_string(v.count));
    }
    csv.value(digestHex(digest));
    csv.endRow();
}

std::vector<FrameCsvRow>
parseFrameCsvText(const std::string &text, const std::string &what)
{
    try {
        return parseFrameCsv(text);
    } catch (ParseError &e) {
        throw e.in(what);
    }
}

std::vector<FrameCsvRow>
parseFrameCsvFile(const std::string &path)
{
    return parseFrameCsvText(
        io::readFileAs(path, ParseSurface::Csv, "result CSV"), path);
}

} // namespace texdist
