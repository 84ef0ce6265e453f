#include "fabric/lease.hh"

#include "core/json.hh"
#include "io/vfs.hh"
#include "sim/logging.hh"

namespace texdist
{
namespace fabric
{

LeaseQueue::LeaseQueue(std::string dir, std::string workerId)
    : _dir(std::move(dir)), _worker(std::move(workerId))
{
    // An uncreatable queue directory is environmental: propagate as
    // IoError (exit 14) so a supervisor retries the worker instead
    // of treating the sweep as failed.
    io::makeDirs(_dir);
}

std::string
LeaseQueue::leasePath(const std::string &name) const
{
    return _dir + "/" + name + ".lease";
}

std::string
LeaseQueue::leaseContent(const std::string &name, uint64_t beat,
                         uint64_t generation) const
{
    JsonValue root = JsonValue::makeObject();
    root.set("format", JsonValue::makeString("texdist-lease"));
    root.set("version", JsonValue::makeNumber(1));
    root.set("config", JsonValue::makeString(name));
    root.set("worker", JsonValue::makeString(_worker));
    root.set("beat", JsonValue::makeNumber(double(beat)));
    root.set("generation",
             JsonValue::makeNumber(double(generation)));
    return root.dump();
}

bool
LeaseQueue::tryClaim(const std::string &name)
{
    ++_generation;
    // O_EXCL creation arbitrates the claim race; a write or close
    // failure unlinks the half-written claim before rethrowing, so
    // a full disk never leaves behind a wedged lease no one owns.
    if (!io::createExclusive(leasePath(name),
                             leaseContent(name, 0, _generation)))
        return false;
    _held[name] = Held{0, _generation};
    return true;
}

void
LeaseQueue::heartbeat(const std::string &name)
{
    auto it = _held.find(name);
    if (it == _held.end())
        return;
    // A peer may have judged us stale and seized the claim; our
    // refresh must not clobber theirs. (A seizure landing between
    // this check and the write below can still be overwritten, but
    // that race is benign: the stealer's next owns() check fails,
    // it stands down, and we finish the config — results are
    // idempotent either way.)
    if (!owns(name)) {
        _held.erase(it);
        return;
    }
    ++it->second.beat;
    // The rewrite is a scratch+rename, so observers never read a
    // torn heartbeat — they see the old beat or the new one. A
    // failed refresh is survivable (peers steal from a worker that
    // goes silent), so swallow the IoError and keep computing
    // rather than abandoning useful work.
    try {
        atomicWriteFile(leasePath(name),
                        leaseContent(name, it->second.beat,
                                     it->second.generation));
    } catch (const IoError &e) {
        warn("lease heartbeat failed (continuing): ", e.describe());
    }
}

std::optional<LeaseInfo>
LeaseQueue::read(const std::string &name) const
{
    auto bytes = io::readFileIfPresent(leasePath(name));
    if (!bytes)
        return std::nullopt;
    auto parsed = tryParse([&] {
        JsonValue root = JsonValue::parse(*bytes);
        LeaseInfo info;
        if (root.at("format").asString() != "texdist-lease")
            throw ParseError(ParseSurface::Fabric, ParseRule::Magic,
                             "not a lease file");
        info.worker = root.at("worker").asString();
        info.beat = root.at("beat").asU64();
        info.generation = root.at("generation").asU64();
        return info;
    });
    if (!parsed.ok())
        return std::nullopt;
    return parsed.takeValue();
}

bool
LeaseQueue::owns(const std::string &name) const
{
    auto it = _held.find(name);
    if (it == _held.end())
        return false;
    auto info = read(name);
    return info && info->worker == _worker &&
           info->generation == it->second.generation;
}

void
LeaseQueue::release(const std::string &name)
{
    if (owns(name))
        io::removeQuiet(leasePath(name));
    _held.erase(name);
}

void
LeaseQueue::releaseAll()
{
    while (!_held.empty()) {
        // A copy: release() erases the map node that holds the key.
        const std::string name = _held.begin()->first;
        release(name);
    }
}

uint64_t
LeaseQueue::observeUnchanged(const std::string &name)
{
    auto bytes = io::readFileIfPresent(leasePath(name));
    if (!bytes) {
        _observed.erase(name);
        return 0;
    }
    Observation &obs = _observed[name];
    if (obs.fingerprint == *bytes) {
        ++obs.unchanged;
    } else {
        // Any content change is progress — absolute heartbeat
        // values are irrelevant, so a holder with a skewed counter
        // (huge jumps, even backwards) still reads as alive.
        obs.fingerprint = *bytes;
        obs.unchanged = 1;
    }
    return obs.unchanged;
}

bool
LeaseQueue::steal(const std::string &name)
{
    ++_generation;
    // Scratch + fsync + rename over the stale claim. Any filesystem
    // failure (writeFileAtomic rolls the scratch back) just means
    // the steal did not happen — stand down and let the next
    // observation cycle retry.
    try {
        io::writeFileAtomic(leasePath(name),
                            leaseContent(name, 0, _generation));
    } catch (const IoError &) {
        return false;
    }
    _held[name] = Held{0, _generation};
    _observed.erase(name);
    // Another stealer may have renamed over us in the window; the
    // read-back decides who actually holds the lease.
    if (!owns(name)) {
        _held.erase(name);
        return false;
    }
    ++_stolen;
    return true;
}

bool
LeaseQueue::isClaimed(const std::string &name) const
{
    return io::readFileIfPresent(leasePath(name)).has_value();
}

void
LeaseQueue::markDone(const std::string &name, const StoreKey &key)
{
    // No worker id in the marker: every finisher of this config
    // writes byte-identical content, so the publish race between a
    // straggler and its speculative duplicate is harmless.
    JsonValue root = JsonValue::makeObject();
    root.set("format", JsonValue::makeString("texdist-done"));
    root.set("version", JsonValue::makeNumber(1));
    root.set("config", JsonValue::makeString(name));
    root.set("key", JsonValue::makeString(key.hex()));
    atomicWriteFile(_dir + "/" + name + ".done", root.dump());
}

void
LeaseQueue::markFailed(const std::string &name, const StoreKey &key,
                       int exitCode)
{
    JsonValue root = JsonValue::makeObject();
    root.set("format", JsonValue::makeString("texdist-failed"));
    root.set("version", JsonValue::makeNumber(1));
    root.set("config", JsonValue::makeString(name));
    root.set("key", JsonValue::makeString(key.hex()));
    root.set("exit_code", JsonValue::makeNumber(exitCode));
    atomicWriteFile(_dir + "/" + name + ".failed", root.dump());
}

std::optional<LeaseQueue::Marker>
LeaseQueue::readMarker(const std::string &name,
                       const std::string &kind) const
{
    auto bytes = io::readFileIfPresent(_dir + "/" + name + "." + kind);
    if (!bytes)
        return std::nullopt;
    // A torn marker is treated as absent: the config re-runs (a
    // store hit makes that cheap) and the rewrite repairs the file.
    auto parsed = tryParse([&] {
        JsonValue root = JsonValue::parse(*bytes);
        if (root.at("format").asString() != "texdist-" + kind)
            throw ParseError(ParseSurface::Fabric, ParseRule::Magic,
                             "not a " + kind + " marker");
        Marker m;
        // A marker without a key predates keyed markers: it cannot
        // vouch for any key.
        if (const JsonValue *key = root.get("key"))
            m.key = key->asString();
        if (kind == "failed")
            m.exitCode = int(root.at("exit_code").asNumber());
        return m;
    });
    if (!parsed.ok())
        return std::nullopt;
    return parsed.value();
}

bool
LeaseQueue::isDone(const std::string &name, const StoreKey &key) const
{
    auto m = readMarker(name, "done");
    return m && m->key == key.hex();
}

bool
LeaseQueue::isFailed(const std::string &name, const StoreKey &key,
                     int *exitCode) const
{
    auto m = readMarker(name, "failed");
    if (!m || m->key != key.hex())
        return false;
    if (exitCode)
        *exitCode = m->exitCode;
    return true;
}

bool
LeaseQueue::dropStaleMarkers(const std::string &name,
                             const StoreKey &key)
{
    bool dropped = false;
    for (const std::string kind : {"done", "failed"}) {
        auto m = readMarker(name, kind);
        if (m && m->key != key.hex())
            dropped |= io::removeQuiet(_dir + "/" + name + "." + kind);
    }
    return dropped;
}

} // namespace fabric
} // namespace texdist
