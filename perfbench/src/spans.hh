/**
 * @file
 * Span recorder for the traced run.  The benchmark opens a span around
 * each call it makes into a simulator layer; a span has a name, start
 * and end (steady-clock ns since the recorder was made), its parent
 * span, and the id of the run (one timed repetition) it belongs to.
 * Spans stay in memory until the run ends and are then written out as
 * JSON lines; self time — a span's duration minus the part of it that
 * its children cover — is derived from them afterwards.
 *
 * With a null recorder every Span is a no-op, so the untraced run and
 * the traced run execute the same benchmark code.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

struct SpanRecord
{
    std::string name;
    double startNs = 0;
    double endNs = 0;
    /** Index of the parent in the recorder (-1 for a root span). */
    long parent = -1;
    std::uint64_t run = 0;

    double durationNs() const { return endNs - startNs; }
};

class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    /** Nanoseconds since the recorder was made. */
    double now() const;

    /** Open a span; @return its index.  Thread-safe. */
    long open(const std::string &name, long parent, std::uint64_t run);
    /** Close span @p index at the current time.  Thread-safe. */
    void close(long index);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Durations (ns) of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** One JSON object per span. */
    void write(std::ostream &os) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

/**
 * Self time per span name, summed over all spans of that name.  A
 * span's self time is its duration minus the length of the union of
 * its children's intervals clipped to it, so children that overlap
 * each other (concurrent workers) are subtracted once.
 */
std::map<std::string, double> selfTimeNs(const std::vector<SpanRecord> &spans);

/**
 * RAII span: opens on construction, closes on destruction or close().
 * A null recorder makes it free of any recording.
 */
class Span
{
  public:
    Span(SpanRecorder *rec, const std::string &name, long parent = -1,
         std::uint64_t run = 0)
        : rec_(rec), index_(rec ? rec->open(name, parent, run) : -1)
    {
    }
    ~Span() { close(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void
    close()
    {
        if (rec_ && !closed_)
            rec_->close(index_);
        closed_ = true;
    }

    /** The index children pass as their parent. */
    long index() const { return index_; }

  private:
    SpanRecorder *rec_;
    long index_;
    bool closed_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
