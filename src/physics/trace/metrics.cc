#include "metrics.hh"

#include <cstdio>

namespace parallax
{

MetricsRegistry::Slot
MetricsRegistry::slot(const std::string &name, Kind kind)
{
    auto it = index_.find(name);
    if (it != index_.end())
        return it->second;
    index_.emplace(name, entries_.size());
    entries_.push_back(Entry{name, kind, 0.0});
    return entries_.size() - 1;
}

void
MetricsRegistry::add(Slot slot, double delta)
{
    if (delta > 0.0)
        entries_[slot].value += delta;
}

void
MetricsRegistry::set(Slot slot, double value)
{
    entries_[slot].value = value;
}

void
MetricsRegistry::add(const std::string &name, double delta)
{
    add(slot(name, Kind::Counter), delta);
}

void
MetricsRegistry::set(const std::string &name, double value)
{
    set(slot(name, Kind::Gauge), value);
}

double
MetricsRegistry::value(const std::string &name) const
{
    auto it = index_.find(name);
    return it != index_.end() ? entries_[it->second].value : 0.0;
}

std::string
MetricsRegistry::toJson() const
{
    std::string out = "{";
    bool first = true;
    for (const Entry &e : entries_) {
        if (!first)
            out += ",";
        first = false;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", e.value);
        out += "\"" + e.name + "\":" + buf;
    }
    out += "}";
    return out;
}

void
MetricsRegistry::clear()
{
    entries_.clear();
    index_.clear();
}

} // namespace parallax
