#include "sim/serialize.hh"

#include "sim/log.hh"

namespace a4
{

namespace
{

// One byte per value so reader/writer drift is caught at the exact
// point of divergence, not megabytes later.
enum : std::uint8_t {
    kTagU8 = 0x01,
    kTagU32 = 0x02,
    kTagU64 = 0x03,
    kTagI64 = 0x04,
    kTagF64 = 0x05,
    kTagBool = 0x06,
    kTagStr = 0x07,
    kTagU128 = 0x08,
    kTagBlob = 0x09,
    kTagBegin = 0x0A,
    kTagEnd = 0x0B,
};

template <typename T>
void
putLe(std::string &buf, T v)
{
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

} // namespace

// --------------------------------------------------------------------
// Serializer

void
Serializer::tag(std::uint8_t t)
{
    buf_.push_back(static_cast<char>(t));
}

void
Serializer::raw(const void *p, std::size_t n)
{
    if (n == 0)
        return; // an empty podVec's data() may be null
    buf_.append(static_cast<const char *>(p), n);
}

void
Serializer::u8(std::uint8_t v)
{
    tag(kTagU8);
    putLe(buf_, v);
}

void
Serializer::u32(std::uint32_t v)
{
    tag(kTagU32);
    putLe(buf_, v);
}

void
Serializer::u64(std::uint64_t v)
{
    tag(kTagU64);
    putLe(buf_, v);
}

void
Serializer::i64(std::int64_t v)
{
    tag(kTagI64);
    putLe(buf_, static_cast<std::uint64_t>(v));
}

void
Serializer::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    tag(kTagF64);
    putLe(buf_, bits);
}

void
Serializer::boolean(bool v)
{
    tag(kTagBool);
    buf_.push_back(v ? '\1' : '\0');
}

void
Serializer::str(const std::string &v)
{
    tag(kTagStr);
    putLe(buf_, static_cast<std::uint64_t>(v.size()));
    buf_.append(v);
}

void
Serializer::u128(unsigned __int128 v)
{
    tag(kTagU128);
    putLe(buf_, static_cast<std::uint64_t>(v >> 64));
    putLe(buf_, static_cast<std::uint64_t>(v));
}

void
Serializer::begin(const std::string &name)
{
    tag(kTagBegin);
    putLe(buf_, static_cast<std::uint32_t>(name.size()));
    buf_.append(name);
}

void
Serializer::end(const std::string &name)
{
    tag(kTagEnd);
    putLe(buf_, static_cast<std::uint32_t>(name.size()));
    buf_.append(name);
}

void
Serializer::blobHeader(std::size_t elem, std::size_t count)
{
    tag(kTagBlob);
    putLe(buf_, static_cast<std::uint32_t>(elem));
    putLe(buf_, static_cast<std::uint64_t>(count));
}

// --------------------------------------------------------------------
// Deserializer

void
Deserializer::need(std::size_t n) const
{
    if (buf_.size() - pos_ < n)
        throw SnapshotError(sformat(
            "snapshot truncated: need %zu bytes at offset %zu of %zu",
            n, pos_, buf_.size()));
}

std::uint8_t
Deserializer::tagByte(std::uint8_t want, const char *what)
{
    need(1);
    const auto got = static_cast<std::uint8_t>(buf_[pos_]);
    if (got != want)
        throw SnapshotError(sformat(
            "snapshot tag mismatch at offset %zu: want %s (0x%02x), "
            "got 0x%02x", pos_, what, want, got));
    ++pos_;
    return got;
}

void
Deserializer::raw(void *p, std::size_t n)
{
    if (n == 0)
        return; // memcpy from or to null is undefined even for n == 0
    need(n);
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
}

std::uint8_t
Deserializer::u8()
{
    tagByte(kTagU8, "u8");
    std::uint8_t v = 0;
    raw(&v, sizeof(v));
    return v;
}

std::uint32_t
Deserializer::u32()
{
    tagByte(kTagU32, "u32");
    need(4);
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(buf_[pos_ + i]))
             << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t
Deserializer::u64()
{
    tagByte(kTagU64, "u64");
    need(8);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(buf_[pos_ + i]))
             << (8 * i);
    pos_ += 8;
    return v;
}

std::int64_t
Deserializer::i64()
{
    tagByte(kTagI64, "i64");
    need(8);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(buf_[pos_ + i]))
             << (8 * i);
    pos_ += 8;
    return static_cast<std::int64_t>(v);
}

double
Deserializer::f64()
{
    tagByte(kTagF64, "f64");
    need(8);
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < 8; ++i)
        bits |= static_cast<std::uint64_t>(
                    static_cast<std::uint8_t>(buf_[pos_ + i]))
                << (8 * i);
    pos_ += 8;
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

bool
Deserializer::boolean()
{
    tagByte(kTagBool, "bool");
    need(1);
    const char c = buf_[pos_++];
    if (c != '\0' && c != '\1')
        throw SnapshotError(sformat(
            "snapshot bool with value 0x%02x at offset %zu",
            static_cast<unsigned>(static_cast<std::uint8_t>(c)),
            pos_ - 1));
    return c == '\1';
}

std::string
Deserializer::str()
{
    tagByte(kTagStr, "str");
    need(8);
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < 8; ++i)
        n |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(buf_[pos_ + i]))
             << (8 * i);
    pos_ += 8;
    need(n);
    std::string v(buf_.data() + pos_, n);
    pos_ += n;
    return v;
}

unsigned __int128
Deserializer::u128()
{
    tagByte(kTagU128, "u128");
    need(16);
    std::uint64_t hi = 0, lo = 0;
    for (std::size_t i = 0; i < 8; ++i)
        hi |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(buf_[pos_ + i]))
              << (8 * i);
    for (std::size_t i = 0; i < 8; ++i)
        lo |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(buf_[pos_ + 8 + i]))
              << (8 * i);
    pos_ += 16;
    return (static_cast<unsigned __int128>(hi) << 64) | lo;
}

void
Deserializer::begin(const std::string &name)
{
    tagByte(kTagBegin, "section-begin");
    need(4);
    std::uint32_t n = 0;
    for (std::size_t i = 0; i < 4; ++i)
        n |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(buf_[pos_ + i]))
             << (8 * i);
    pos_ += 4;
    need(n);
    const std::string got(buf_.data() + pos_, n);
    pos_ += n;
    if (got != name)
        throw SnapshotError(sformat(
            "snapshot section mismatch: want begin '%s', got '%s'",
            name.c_str(), got.c_str()));
}

void
Deserializer::end(const std::string &name)
{
    tagByte(kTagEnd, "section-end");
    need(4);
    std::uint32_t n = 0;
    for (std::size_t i = 0; i < 4; ++i)
        n |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(buf_[pos_ + i]))
             << (8 * i);
    pos_ += 4;
    need(n);
    const std::string got(buf_.data() + pos_, n);
    pos_ += n;
    if (got != name)
        throw SnapshotError(sformat(
            "snapshot section mismatch: want end '%s', got '%s'",
            name.c_str(), got.c_str()));
}

std::size_t
Deserializer::blobHeader(std::size_t elem)
{
    tagByte(kTagBlob, "blob");
    need(4);
    std::uint32_t e = 0;
    for (std::size_t i = 0; i < 4; ++i)
        e |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(buf_[pos_ + i]))
             << (8 * i);
    pos_ += 4;
    if (e != elem)
        throw SnapshotError(sformat(
            "snapshot blob element size mismatch: want %zu, got %u",
            elem, e));
    need(8);
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < 8; ++i)
        count |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(buf_[pos_ + i]))
                 << (8 * i);
    pos_ += 8;
    return count;
}

void
Deserializer::expectEnd() const
{
    if (!atEnd())
        throw SnapshotError(sformat(
            "snapshot has %zu trailing bytes after the final section",
            buf_.size() - pos_));
}

} // namespace a4
