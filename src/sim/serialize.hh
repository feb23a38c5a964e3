/**
 * @file
 * Versioned snapshot contract: a tagged binary stream codec.
 *
 * Every value written by Serializer carries a one-byte type tag, and
 * sections open/close with length-prefixed names, so a Deserializer
 * that drifts out of sync with the writer (schema change, truncated
 * image, bit rot) fails loudly with a SnapshotError instead of
 * silently misreading state. SnapshotError is the *only* failure mode
 * of the layer — callers (the checkpoint store) catch it and fall
 * back to a cold run, which is always correct because snapshots are a
 * pure wall-clock optimisation.
 *
 * Doubles round-trip through their IEEE-754 bit pattern and integers
 * through fixed-width little-endian bytes, so a restore reproduces
 * the saved state bit-exactly — the property the byte-identity
 * machinery (hex-float Records, observation barrier) then extends to
 * whole-simulation restored==cold equality.
 *
 * Format versioning: bump kSnapshotFormatVersion whenever any
 * saveState/restoreState pair changes shape. The checkpoint store
 * keys images by this version (plus a build tag), so stale images
 * from older binaries are never even opened by a newer one.
 */

#ifndef A4_SIM_SERIALIZE_HH
#define A4_SIM_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace a4
{

/** Bump whenever any save/restore pair changes its stream shape. */
constexpr std::uint32_t kSnapshotFormatVersion = 4;

/**
 * Raised on any snapshot mismatch: tag drift, truncation, section
 * name mismatch, or a component refusing to snapshot its state
 * (e.g. an in-flight I/O completion with no serializable identity).
 * Always recoverable by running cold.
 */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Writer half of the tagged binary snapshot stream. */
class Serializer
{
  public:
    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    void f64(double v);
    void boolean(bool v);
    void str(const std::string &v);
    /** 128-bit event key, written as (hi, lo) 64-bit halves. */
    void u128(unsigned __int128 v);

    /** Open/close a named section; names are checked on read. */
    void begin(const std::string &name);
    void end(const std::string &name);

    /**
     * Vector of trivially-copyable scalars as one length-prefixed
     * blob (used for the regions of the cache's set blocks).
     */
    template <typename T>
    void
    podVec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        blobHeader(sizeof(T), v.size());
        raw(v.data(), v.size() * sizeof(T));
    }

    const std::string &data() const { return buf_; }

  private:
    void tag(std::uint8_t t);
    void raw(const void *p, std::size_t n);
    void blobHeader(std::size_t elem, std::size_t count);

    std::string buf_;
};

/** Reader half; every accessor checks the written type tag. */
class Deserializer
{
  public:
    explicit Deserializer(std::string data) : buf_(std::move(data)) {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    double f64();
    bool boolean();
    std::string str();
    unsigned __int128 u128();

    void begin(const std::string &name);
    void end(const std::string &name);

    /** Read back a podVec(); the stored element size must match. */
    template <typename T>
    void
    podVec(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::size_t count = blobHeader(sizeof(T));
        v.resize(count);
        raw(v.data(), count * sizeof(T));
    }

    /** True once every written byte has been consumed. */
    bool atEnd() const { return pos_ == buf_.size(); }

    /** Throw unless the whole stream was consumed. */
    void expectEnd() const;

  private:
    void need(std::size_t n) const;
    std::uint8_t tagByte(std::uint8_t want, const char *what);
    void raw(void *p, std::size_t n);
    std::size_t blobHeader(std::size_t elem);

    std::string buf_;
    std::size_t pos_ = 0;
};

/**
 * Save/restore hooks for a stateful component. restoreState() runs on
 * a freshly constructed object built from the *same* configuration as
 * the saved one; it only has to reinstate mutable run-time state (and
 * re-arm its Engine::Recurring events at their exact saved keys).
 */
class Snapshottable
{
  public:
    virtual ~Snapshottable() = default;

    virtual void saveState(Serializer &s) const = 0;
    virtual void restoreState(Deserializer &d) = 0;
};

} // namespace a4

#endif // A4_SIM_SERIALIZE_HH
