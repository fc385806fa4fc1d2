/**
 * @file
 * Paged, zero-initialised table over line indices.
 *
 * The memory model keeps per-line state (first-touch bits, directory
 * sharer masks) keyed by line index. Line indices cluster in a few
 * address regions, so one flat array would be mostly empty, while a
 * hash container pays a node allocation and a division per lookup.
 * A PagedTable splits the key into a page number and an offset:
 * pages of 4096 values are allocated, zeroed, on first write,
 * and a read of a page never written sees zero.
 */

#ifndef PARALLAX_MEM_PAGED_TABLE_HH
#define PARALLAX_MEM_PAGED_TABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/logging.hh"

namespace parallax
{

template <typename T>
class PagedTable
{
  public:
    /** The value at `key`; zero if its page was never written. */
    T
    get(std::uint64_t key) const
    {
        const std::uint64_t page = key >> pageBits;
        if (page >= pages_.size() || !pages_[page])
            return T{};
        return pages_[page][key & offsetMask];
    }

    /** The value at `key` for writing; allocates its page. */
    T &
    at(std::uint64_t key)
    {
        const std::uint64_t page = key >> pageBits;
        if (page >= pages_.size()) {
            // The page directory grows with the highest page written,
            // so keys stop at 2^36 (as line indices: 4 TB of 64-byte
            // lines, far above the synthetic address layout) instead
            // of sizing it for any 64-bit key.
            if (page >= maxPages)
                fatal("paged table key %llu beyond the modelled "
                      "address space",
                      static_cast<unsigned long long>(key));
            pages_.resize(page + 1);
        }
        std::unique_ptr<T[]> &slot = pages_[page];
        if (!slot)
            slot = std::make_unique<T[]>(std::size_t{1} << pageBits);
        return slot[key & offsetMask];
    }

    /** Drop every page: all values read zero again. */
    void clear() { pages_.clear(); }

  private:
    static constexpr int pageBits = 12;
    static constexpr std::uint64_t offsetMask =
        (std::uint64_t{1} << pageBits) - 1;
    static constexpr std::uint64_t maxPages = std::uint64_t{1} << 24;

    std::vector<std::unique_ptr<T[]>> pages_;
};

} // namespace parallax

#endif // PARALLAX_MEM_PAGED_TABLE_HH
