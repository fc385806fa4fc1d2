#include "trace.hh"

#include <algorithm>
#include <cstdio>

namespace parallax
{

TraceCollector::TraceCollector()
    : epoch_(std::chrono::steady_clock::now())
{
}

void
TraceCollector::configure(unsigned lanes, bool enabled)
{
    enabled_ = enabled;
    lanes_.clear();
    if (!enabled)
        return;
    lanes_.reserve(lanes);
    for (unsigned i = 0; i < lanes; ++i)
        lanes_.push_back(std::make_unique<LaneBuffer>());
    epoch_ = std::chrono::steady_clock::now();
}

double
TraceCollector::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
TraceCollector::record(unsigned lane, TraceEvent event)
{
    if (!enabled_ || lane >= lanes_.size())
        return;
    LaneBuffer &buffer = *lanes_[lane];
    if (buffer.events.size() >= maxEventsPerLane) {
        ++buffer.dropped;
        return;
    }
    event.lane = lane;
    buffer.events.push_back(event);
}

void
TraceCollector::recordSpan(unsigned lane, const char *name,
                           std::uint64_t step, double beginUs,
                           double endUs, std::int64_t id)
{
    TraceEvent e;
    e.type = TraceEvent::Type::Span;
    e.name = name;
    e.step = step;
    e.ts = beginUs;
    e.dur = std::max(0.0, endUs - beginUs);
    e.id = id;
    record(lane, e);
}

void
TraceCollector::recordCounter(const char *name, std::uint64_t step,
                              double value, std::int64_t id)
{
    TraceEvent e;
    e.type = TraceEvent::Type::Counter;
    e.name = name;
    e.step = step;
    e.ts = nowUs();
    e.value = value;
    e.id = id;
    record(0, e);
}

void
TraceCollector::recordInstant(const char *name, std::uint64_t step,
                              std::int64_t id)
{
    TraceEvent e;
    e.type = TraceEvent::Type::Instant;
    e.name = name;
    e.step = step;
    e.ts = nowUs();
    e.id = id;
    record(0, e);
}

std::vector<TraceEvent>
TraceCollector::events() const
{
    std::vector<TraceEvent> merged;
    std::size_t total = 0;
    for (const auto &lane : lanes_)
        total += lane->events.size();
    merged.reserve(total);
    for (const auto &lane : lanes_) {
        merged.insert(merged.end(), lane->events.begin(),
                      lane->events.end());
    }
    return merged;
}

std::uint64_t
TraceCollector::droppedEvents() const
{
    std::uint64_t dropped = 0;
    for (const auto &lane : lanes_)
        dropped += lane->dropped;
    return dropped;
}

namespace
{

void
appendNumber(std::string &out, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    out += buf;
}

} // namespace

std::string
TraceCollector::toChromeJson() const
{
    // Chrome trace-event format ("JSON Array Format" inside an
    // object wrapper): https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
    std::string out;
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
           "\"args\":{\"name\":\"parallax\"}}";
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
               "\"tid\":" +
               std::to_string(lane) + ",\"args\":{\"name\":\"lane " +
               std::to_string(lane) +
               (lane == 0 ? " (main)" : "") + "\"}}";
    }

    // Merge lane buffers and sort by timestamp so viewers that build
    // tracks incrementally see monotone input (stable sort keeps a
    // lane's record order for equal stamps).
    std::vector<TraceEvent> merged = events();
    std::stable_sort(merged.begin(), merged.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts < b.ts;
                     });

    for (const TraceEvent &e : merged) {
        out += ",\n{\"name\":\"";
        out += e.name;
        out += "\",\"pid\":0,\"tid\":";
        out += std::to_string(e.lane);
        out += ",\"ts\":";
        appendNumber(out, e.ts);
        switch (e.type) {
          case TraceEvent::Type::Span:
            out += ",\"ph\":\"X\",\"dur\":";
            appendNumber(out, e.dur);
            out += ",\"args\":{\"step\":" + std::to_string(e.step);
            if (e.id >= 0)
                out += ",\"id\":" + std::to_string(e.id);
            out += "}}";
            break;
          case TraceEvent::Type::Counter:
            out += ",\"ph\":\"C\"";
            if (e.id >= 0)
                out += ",\"id\":" + std::to_string(e.id);
            out += ",\"args\":{\"value\":";
            appendNumber(out, e.value);
            out += "}}";
            break;
          case TraceEvent::Type::Instant:
            out += ",\"ph\":\"i\",\"s\":\"g\",\"args\":{\"step\":" +
                   std::to_string(e.step);
            if (e.id >= 0)
                out += ",\"id\":" + std::to_string(e.id);
            out += "}}";
            break;
        }
    }
    out += "\n]}";
    out += "\n";
    return out;
}

Status
TraceCollector::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return ioError("cannot open '" + path + "' for writing");
    const std::string text = toChromeJson();
    const std::size_t written =
        std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (written != text.size())
        return ioError("short write to '" + path + "'");
    return okStatus();
}

std::string
decorateTracePath(const std::string &path, const std::string &tag)
{
    if (tag.empty())
        return path;
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + "_" + tag;
    }
    return path.substr(0, dot) + "_" + tag + path.substr(dot);
}

} // namespace parallax
