#include "harness/checkpoint.hh"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <sstream>

#include <unistd.h>

#include "core/a4.hh"
#include "harness/spec.hh"
#include "harness/testbed.hh"
#include "iodev/nic.hh"
#include "iodev/nvme.hh"
#include "net/frame.hh" // the repo-wide fnv1a64
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"

namespace a4
{

namespace
{

constexpr char kMagic[] = "A4CKPT1\n";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(char((v >> (8 * i)) & 0xFF));
}

bool
getU64(const std::string &in, std::size_t &pos, std::uint64_t &v)
{
    if (in.size() - pos < 8)
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(static_cast<unsigned char>(in[pos + i]))
             << (8 * i);
    pos += 8;
    return true;
}

std::string &
warnedPaths()
{
    static std::string warned;
    return warned;
}

} // namespace

std::string
checkpointDir()
{
    const char *env = std::getenv("A4_CKPT_DIR");
    return env ? std::string(env) : std::string();
}

std::string
buildTag()
{
    // liba4 is a static library, so any change to the simulator
    // changes the linked executable and with it this hash. Computed
    // once per process; forked sweep points inherit the value.
    static const std::string tag = [] {
        std::ifstream in("/proc/self/exe", std::ios::binary);
        std::ostringstream raw;
        if (in)
            raw << in.rdbuf();
        const std::string exe = raw.str();
        if (exe.empty()) {
            std::fprintf(stderr,
                         "warning: A4_CKPT_DIR: cannot read the running "
                         "executable to key images; running cold\n");
            return std::string();
        }
        return sformat("%016llx",
                       static_cast<unsigned long long>(fnv1a64(exe)));
    }();
    return tag;
}

std::string
checkpointKeyText(const ScenarioSpec &spec, Tick warmup)
{
    // The measure window only affects post-boundary behaviour, so
    // strip its line: measure-window variants share one image.
    std::istringstream in(serializeSpec(spec));
    std::string spec_text, line;
    while (std::getline(in, line)) {
        if (line.rfind("measure_ns ", 0) == 0 ||
            line.rfind("measure_ns=", 0) == 0)
            continue;
        spec_text += line;
        spec_text += '\n';
    }

    std::string key;
    key += sformat("format = %u\n", kSnapshotFormatVersion);
    // An image is only trusted by the executable that wrote it.
    key += sformat("build = %s\n", buildTag().c_str());
    key += sformat("warmup_ticks = %llu\n",
                   static_cast<unsigned long long>(warmup));
    key += sformat("env.seed = %llu\n",
                   static_cast<unsigned long long>(envSeed()));
    key += sformat("env.nic_burst = %llu\n",
                   static_cast<unsigned long long>(
                       NicConfig::burstFromEnv()));
    key += sformat("env.nvme_lazy = %d\n",
                   SsdConfig::lazyFromEnv() ? 1 : 0);
    key += "spec:\n";
    key += spec_text;
    return key;
}

std::string
checkpointPath(const std::string &dir, const std::string &key_text)
{
    return sformat("%s/a4-warmup-%016llx.ckpt", dir.c_str(),
                   static_cast<unsigned long long>(fnv1a64(key_text)));
}

std::string
saveWarmupImage(Testbed &bed, const A4Manager *mgr)
{
    Serializer s;
    bed.engine().saveBegin(s);
    bed.saveState(s);
    s.boolean(mgr != nullptr);
    if (mgr)
        mgr->saveState(s);
    bed.engine().saveEnd(s);
    return s.data();
}

void
restoreWarmupImage(const std::string &payload, Testbed &bed,
                   A4Manager *mgr)
{
    Deserializer d(payload);
    bed.engine().restoreBegin(d);
    bed.restoreState(d);
    if (d.boolean() != (mgr != nullptr))
        throw SnapshotError("checkpoint: manager presence mismatch");
    if (mgr)
        mgr->restoreState(d);
    bed.engine().restoreEnd(d);
    d.expectEnd();
}

bool
loadWarmupImage(const std::string &path, const std::string &key_text,
                std::string &payload_out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false; // absent: the normal cold-start case, no warning

    std::ostringstream raw;
    raw << in.rdbuf();
    const std::string file = raw.str();

    const char *why = nullptr;
    std::size_t pos = 0;
    std::uint64_t key_len = 0, payload_len = 0, sum = 0;
    if (file.size() < kMagicLen ||
        std::memcmp(file.data(), kMagic, kMagicLen) != 0) {
        why = "bad magic";
    } else {
        pos = kMagicLen;
        if (!getU64(file, pos, key_len) ||
            file.size() - pos < key_len) {
            why = "truncated key";
        } else if (file.compare(pos, key_len, key_text) != 0) {
            // Hash-collision-proof: the embedded key text must match
            // byte for byte, not just the filename hash.
            why = "key mismatch (stale image?)";
        } else {
            pos += key_len;
            if (!getU64(file, pos, payload_len) ||
                file.size() - pos < payload_len + 8) {
                why = "truncated payload";
            } else {
                payload_out = file.substr(pos, payload_len);
                pos += payload_len;
                getU64(file, pos, sum);
                if (sum != fnv1a64(payload_out))
                    why = "checksum mismatch";
            }
        }
    }
    if (why) {
        warnOncePerValue(
            warnedPaths(), path.c_str(),
            sformat("warning: A4_CKPT_DIR: ignoring image '%%s' "
                    "(%s); running cold\n", why).c_str());
        payload_out.clear();
        return false;
    }
    return true;
}

void
storeWarmupImage(const std::string &path, const std::string &key_text,
                 const std::string &payload)
{
    std::string file;
    file.reserve(kMagicLen + 24 + key_text.size() + payload.size());
    file += kMagic;
    putU64(file, key_text.size());
    file += key_text;
    putU64(file, payload.size());
    file += payload;
    putU64(file, fnv1a64(payload));

    // Write-temp + rename: concurrent sweep workers racing on the
    // same key each publish a complete image; the last rename wins.
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    const std::string tmp =
        sformat("%s.tmp.%ld", path.c_str(), long(getpid()));
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out)
        out.write(file.data(), std::streamsize(file.size()));
    if (!out || !out.flush()) {
        warnOncePerValue(warnedPaths(), path.c_str(),
                         "warning: A4_CKPT_DIR: cannot write image "
                         "'%s'; continuing without\n");
        std::remove(tmp.c_str());
        return;
    }
    out.close();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warnOncePerValue(warnedPaths(), path.c_str(),
                         "warning: A4_CKPT_DIR: cannot publish image "
                         "'%s'; continuing without\n");
        std::remove(tmp.c_str());
    }
}

} // namespace a4
