#pragma once
// ovo::obs — trace spans with Chrome trace-event export.
//
// A Span is a scoped RAII timing record: name, category, an explicit
// thread slot (the scheduler's worker index, NOT an opaque OS thread id,
// so traces are comparable across runs), steady-clock timestamps relative
// to the enable() epoch, and up to two named integer args (layer, chunk,
// pruned count, Grover iterate count, …).  Spans land in per-thread-slot
// buffers — no lock on the hot path — and write_trace_json() renders them
// as Chrome `trace_event` complete events ("ph":"X"), loadable in
// chrome://tracing or Perfetto (see EXPERIMENTS.md for a walkthrough).
//
// Two off switches, both zero-cost:
//   - runtime: tracing is collected only between enable() and disable();
//     when disabled a span start is one relaxed atomic load.
//   - compile time: build with -DOVO_TRACE=OFF (OVO_TRACE_ENABLED=0) and
//     the macros expand to nothing — no obs::trace symbols are referenced
//     at all (verify.sh checks this with nm on a -DOVO_TRACE=OFF build).
//
// Instrument with the macros, not the classes:
//
//   OVO_TRACE_SPAN("fs.chunk", "sched", slot);
//   OVO_TRACE_SPAN_ARGS("fs.group", "fs", slot, "layer", k, "chunk", c);
//
// A second arg known only once the region's work is done (the bytes it
// wrote) goes on a named span, set before the span closes:
//
//   OVO_TRACE_SPAN_NAMED(span, "fs.checkpoint", "rt", 0, "layer", k,
//                        "bytes", 0);
//   ...
//   OVO_TRACE_SET_ARG_B(span, frame.size());
//
// `name` and `category` must be string literals (or otherwise outlive the
// trace session); they are stored as pointers.

#ifndef OVO_TRACE_ENABLED
#define OVO_TRACE_ENABLED 1
#endif

#include <cstdint>
#include <string>

namespace ovo::obs {

#if OVO_TRACE_ENABLED

/// Collection state for the whole process.  Thread slots index fixed
/// per-slot buffers; slot -1 means "the calling (serial/main) thread".
namespace trace {

/// Starts collecting; timestamps are nanoseconds since this call.
/// Clears any previously collected events.
void enable(int max_slots = 64);
/// Stops collecting (buffered events are kept until enable() clears
/// them).
void disable();
/// One relaxed load; the macro guards everything else behind it.
bool enabled();

/// Number of events currently buffered (all slots).
std::size_t event_count();

/// Renders every buffered event as a Chrome trace-event JSON document
/// ({"traceEvents":[...]}), events sorted by (tid, ts) so per-thread
/// timestamps are monotone in file order.
std::string to_json();

/// to_json() written atomically to `path` (temp + rename); returns false
/// on I/O failure.
bool write_json(const std::string& path);

/// Internal: records one complete event.  Args with a null key are
/// omitted.  Called by Span's destructor only when enabled() held at
/// construction.
void record(const char* name, const char* category, int slot,
            std::uint64_t start_ns, std::uint64_t end_ns, const char* akey,
            std::uint64_t aval, const char* bkey, std::uint64_t bval);

/// Internal: nanoseconds since the enable() epoch.
std::uint64_t now_ns();

}  // namespace trace

/// Scoped span; see the macros below.  Copying is disabled — a span is
/// the lifetime of the timed region.
class Span {
 public:
  Span(const char* name, const char* category, int slot,
       const char* akey = nullptr, std::uint64_t aval = 0,
       const char* bkey = nullptr, std::uint64_t bval = 0)
      : name_(name), category_(category), slot_(slot), akey_(akey),
        aval_(aval), bkey_(bkey), bval_(bval),
        live_(trace::enabled()) {
    if (live_) start_ns_ = trace::now_ns();
  }
  ~Span() {
    if (live_)
      trace::record(name_, category_, slot_, start_ns_, trace::now_ns(),
                    akey_, aval_, bkey_, bval_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Replaces the second arg's value (OVO_TRACE_SET_ARG_B).
  void set_arg_b(std::uint64_t v) { bval_ = v; }

 private:
  const char* name_;
  const char* category_;
  int slot_;
  const char* akey_;
  std::uint64_t aval_;
  const char* bkey_;
  std::uint64_t bval_;
  bool live_;
  std::uint64_t start_ns_ = 0;
};

#define OVO_TRACE_CONCAT2(a, b) a##b
#define OVO_TRACE_CONCAT(a, b) OVO_TRACE_CONCAT2(a, b)

#define OVO_TRACE_SPAN(name, category, slot)                   \
  ::ovo::obs::Span OVO_TRACE_CONCAT(ovo_trace_span_, __LINE__)( \
      name, category, slot)
#define OVO_TRACE_SPAN_ARGS(name, category, slot, akey, aval, bkey, bval) \
  OVO_TRACE_SPAN_NAMED(OVO_TRACE_CONCAT(ovo_trace_span_, __LINE__), name,  \
                       category, slot, akey, aval, bkey, bval)
#define OVO_TRACE_SPAN_NAMED(var, name, category, slot, akey, aval, bkey, \
                             bval)                                        \
  ::ovo::obs::Span var(name, category, slot, akey,                        \
                       static_cast<std::uint64_t>(aval), bkey,            \
                       static_cast<std::uint64_t>(bval))
#define OVO_TRACE_SET_ARG_B(var, value) \
  var.set_arg_b(static_cast<std::uint64_t>(value))

#else  // !OVO_TRACE_ENABLED — every macro compiles to nothing.

#define OVO_TRACE_SPAN(name, category, slot) \
  do {                                       \
  } while (false)
#define OVO_TRACE_SPAN_ARGS(name, category, slot, akey, aval, bkey, bval) \
  do {                                                                    \
  } while (false)
#define OVO_TRACE_SPAN_NAMED(var, name, category, slot, akey, aval, bkey, \
                             bval)                                        \
  do {                                                                    \
  } while (false)
#define OVO_TRACE_SET_ARG_B(var, value) \
  do {                                  \
  } while (false)

#endif  // OVO_TRACE_ENABLED

}  // namespace ovo::obs
