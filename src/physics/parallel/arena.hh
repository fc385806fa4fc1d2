/**
 * @file
 * Per-lane frame arena: bump allocation for step-transient data.
 *
 * The modeled ParallAX cores work out of partition-local memories and
 * never touch a general-purpose allocator mid-step; the host engine
 * earns the same property with one FrameArena per scheduler lane.
 * Tasks bump-allocate whatever scratch they need from their own
 * lane's arena (no synchronization — a lane only allocates from
 * itself), and the world rewinds every arena at the substep barrier.
 * After warm-up the arenas stop growing and the steady-state step
 * performs no transient heap allocations at all; the growth and
 * high-water counters feed the `arena.*` metrics and the `perf`
 * allocation-regression test that pins this down.
 *
 * Allocation is not constructed storage: ArenaVector (below) is the
 * intended container and requires trivially destructible elements,
 * because reset() rewinds without running destructors.
 */

#ifndef PARALLAX_PHYSICS_PARALLEL_ARENA_HH
#define PARALLAX_PHYSICS_PARALLEL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace parallax
{

/** Bump allocator over a chain of blocks, rewound once per step. */
class FrameArena
{
  public:
    explicit FrameArena(std::size_t block_bytes = 64 * 1024)
        : blockBytes_(block_bytes)
    {
    }

    FrameArena(const FrameArena &) = delete;
    FrameArena &operator=(const FrameArena &) = delete;

    /** Bump-allocate `bytes` aligned to `align` (a power of two). */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        if (current_ < blocks_.size()) {
            Block &b = blocks_[current_];
            const std::size_t at = alignUp(b.used, align);
            if (at + bytes <= b.size) {
                b.used = at + bytes;
                bumpFrame(bytes);
                return b.data.get() + at;
            }
            // Current block exhausted: fall through to the next one
            // (possibly allocating it).
        }
        return allocateSlow(bytes, align);
    }

    /** Typed uninitialized array of `n` elements. */
    template <typename T>
    T *
    allocArray(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena storage is rewound without destructors");
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    /**
     * Rewind to empty, keeping every block for reuse. Called at the
     * step barrier; all pointers handed out this frame die here.
     */
    void
    reset()
    {
        for (Block &b : blocks_)
            b.used = 0;
        current_ = 0;
        frameBytes_ = 0;
    }

    /** Bytes handed out since the last reset(). */
    std::size_t frameBytes() const { return frameBytes_; }

    /** Largest frameBytes() ever observed (monotonic). */
    std::size_t highWaterBytes() const { return highWater_; }

    /** Total bytes of owned block storage. */
    std::size_t
    capacityBytes() const
    {
        std::size_t total = 0;
        for (const Block &b : blocks_)
            total += b.size;
        return total;
    }

    /**
     * Times a fresh block had to be heap-allocated (monotonic). A
     * warm steady state never grows this: that is exactly what the
     * `perf`-labeled allocation-regression test asserts.
     */
    std::uint64_t growthCount() const { return growths_; }

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    static std::size_t
    alignUp(std::size_t v, std::size_t align)
    {
        return (v + align - 1) & ~(align - 1);
    }

    void *
    allocateSlow(std::size_t bytes, std::size_t align)
    {
        // Advance through already-owned blocks first; only allocate
        // a new one (and count the growth) when none fits.
        while (current_ + 1 < blocks_.size()) {
            ++current_;
            Block &b = blocks_[current_];
            const std::size_t at = alignUp(b.used, align);
            if (at + bytes <= b.size) {
                b.used = at + bytes;
                bumpFrame(bytes);
                return b.data.get() + at;
            }
        }
        const std::size_t size =
            bytes + align > blockBytes_ ? bytes + align : blockBytes_;
        blocks_.push_back(Block{
            std::make_unique<std::byte[]>(size), size, 0});
        ++growths_;
        current_ = blocks_.size() - 1;
        Block &b = blocks_.back();
        const std::size_t at = alignUp(0, align);
        b.used = at + bytes;
        bumpFrame(bytes);
        return b.data.get() + at;
    }

    void
    bumpFrame(std::size_t bytes)
    {
        frameBytes_ += bytes;
        if (frameBytes_ > highWater_)
            highWater_ = frameBytes_;
    }

    std::size_t blockBytes_;
    std::vector<Block> blocks_;
    std::size_t current_ = 0;
    std::size_t frameBytes_ = 0;
    std::size_t highWater_ = 0;
    std::uint64_t growths_ = 0;
};

/**
 * Minimal vector over FrameArena storage: push_back with geometric
 * growth, no destructors, no shrink. Growth abandons the old span
 * (arena memory is reclaimed wholesale at reset), so the arena
 * high-water mark honestly accounts the waste. Elements must be
 * trivially copyable so growth is a memcpy.
 */
template <typename T>
class ArenaVector
{
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(std::is_trivially_destructible_v<T>);

  public:
    ArenaVector() = default;
    explicit ArenaVector(FrameArena *arena) : arena_(arena) {}

    void
    push_back(const T &value)
    {
        if (size_ == capacity_)
            grow(capacity_ == 0 ? 8 : capacity_ * 2);
        data_[size_++] = value;
    }

    /** Ensure room for `cap` elements without a further grow. */
    void
    reserve(std::size_t cap)
    {
        if (cap > capacity_)
            grow(cap);
    }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T *data() const { return data_; }
    T *data() { return data_; }

  private:
    void
    grow(std::size_t cap)
    {
        T *fresh = arena_->allocArray<T>(cap);
        if (size_ > 0)
            std::memcpy(fresh, data_, size_ * sizeof(T));
        data_ = fresh;
        capacity_ = cap;
    }

    FrameArena *arena_ = nullptr;
    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_PARALLEL_ARENA_HH
