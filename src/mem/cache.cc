#include "cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace parallax
{

CacheTags::CacheTags(CacheConfig config) : config_(config)
{
    if (config_.sizeBytes == 0 || config_.lineBytes <= 0)
        fatal("cache size and line size must be positive");
    // The tag word keeps two flag bits under the line index, so the
    // line index must leave them free: lines of at least 4 bytes.
    const auto line_bytes = static_cast<unsigned>(config_.lineBytes);
    if (!std::has_single_bit(line_bytes) || line_bytes < 4)
        fatal("cache line size %d must be a power of two of at least "
              "4 bytes",
              config_.lineBytes);
    lineShift_ = std::countr_zero(line_bytes);
    const std::uint64_t total_lines =
        config_.sizeBytes / config_.lineBytes;
    if (total_lines == 0)
        fatal("cache smaller than one line");
    if (config_.ways <= 0)
        fatal("cache needs at least one way");
    if (static_cast<std::uint64_t>(config_.ways) > total_lines)
        config_.ways = static_cast<int>(total_lines);
    sets_.numSets = std::max<std::uint64_t>(1, total_lines / config_.ways);
    sets_.setMask = sets_.numSets - 1;
    sets_.ways = config_.ways;
    sets_.pow2 = std::has_single_bit(sets_.numSets);
    lines_.resize(sets_.numSets * config_.ways);
}

bool
Cache::firstTouch(std::uint64_t line)
{
    std::uint64_t &word = touched_.at(line >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (line & 63);
    const bool first = (word & bit) == 0;
    word |= bit;
    return first;
}

bool
Cache::access(std::uint64_t addr, bool write, bool kernel)
{
    ++stats_.accesses;
    const std::uint64_t line = lineIndex(addr);
    const LineAccess result = accessLine(line, write);
    if (result.hit) {
        ++stats_.hits;
        return true;
    }
    ++stats_.misses;
    if (firstTouch(line))
        ++stats_.compulsoryMisses;
    if (kernel)
        ++stats_.kernelMisses;
    else
        ++stats_.userMisses;
    if (result.writeback)
        ++stats_.writebacks;
    return false;
}

bool
CacheTags::probe(std::uint64_t addr) const
{
    const std::uint64_t line = lineIndex(addr);
    const Line *base = &lines_[sets_(line)];
    for (int w = 0; w < config_.ways; ++w) {
        if (base[w].holds(line))
            return true;
    }
    return false;
}

bool
CacheTags::invalidate(std::uint64_t addr)
{
    const std::uint64_t line = lineIndex(addr);
    Line *base = &lines_[sets_(line)];
    for (int w = 0; w < config_.ways; ++w) {
        Line &entry = base[w];
        if (entry.holds(line)) {
            entry.word &= ~validBit;
            return (entry.word & dirtyBit) != 0;
        }
    }
    return false;
}

void
CacheTags::flush()
{
    for (Line &entry : lines_)
        entry.word &= ~validBit;
}

std::uint64_t
CacheTags::residentLines() const
{
    std::uint64_t count = 0;
    for (const Line &entry : lines_)
        count += entry.word & validBit;
    return count;
}

} // namespace parallax
