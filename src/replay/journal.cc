#include "replay/journal.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>
#include <stdexcept>
#include <vector>

#include "common/expect.h"
#include "replay/token_cursor.h"

namespace saath::replay {

namespace {

/// Doubles travel as C hexfloats: strtod round-trips the exact bits, which
/// is the whole point of a byte-identity journal. (istream's >> double
/// cannot parse hexfloat, hence tokenize-then-strtod everywhere.)
void append_double(std::string& line, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " %a", v);
  line += buf;
}

[[noreturn]] void bad_line(std::int64_t line_no, const std::string& what) {
  throw std::runtime_error("journal line " + std::to_string(line_no) + ": " +
                           what);
}

[[nodiscard]] double parse_double(std::string_view tok, std::int64_t line_no) {
  // strtod needs a terminated string; doubles only appear on D and C lines.
  const std::string s(tok);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    bad_line(line_no, "bad double '" + s + "'");
  }
  return v;
}

[[nodiscard]] std::int64_t parse_int(std::string_view tok,
                                     std::int64_t line_no) {
  const auto v = to_int(tok);
  if (!v.has_value()) {
    bad_line(line_no, "bad integer '" + std::string(tok) + "'");
  }
  return *v;
}

/// Pulls the next token; throws naming the line on exhaustion.
[[nodiscard]] std::string_view take(TokenCursor& cur, std::int64_t line_no) {
  const std::string_view tok = cur.next();
  if (tok.empty()) bad_line(line_no, "truncated record");
  return tok;
}

[[nodiscard]] std::int64_t take_int(TokenCursor& cur, std::int64_t line_no) {
  return parse_int(take(cur, line_no), line_no);
}

/// Appends " <tok>". Split +='s (char, then token) rather than a
/// `" " + tok` temporary: GCC 12's -Wrestrict misfires on the inlined
/// operator+(const char*, string&&) path (GCC PR105329).
void append_token(std::string& line, const std::string& tok) {
  line += ' ';
  line += tok;
}

void write_config(std::string& line, const SimConfig& c) {
  line += 'C';
  append_double(line, c.port_bandwidth);
  append_token(line, std::to_string(c.delta));
  append_token(line, std::to_string(static_cast<int>(c.reallocate_on_completion)));
  append_token(line, std::to_string(static_cast<int>(c.check_capacity)));
  append_token(line, std::to_string(static_cast<int>(c.skip_quiescent_epochs)));
  append_token(line, std::to_string(static_cast<int>(c.event_driven)));
  append_token(line, std::to_string(static_cast<int>(c.record_results)));
  append_token(line, std::to_string(c.max_sim_time));
  append_token(line, std::to_string(c.max_stall_epochs));
  append_token(line, std::to_string(c.max_requeue_attempts));
  append_token(line, std::to_string(static_cast<int>(c.strict_input)));
}

[[nodiscard]] SimConfig read_config(TokenCursor& cur, std::int64_t line_no) {
  SimConfig c;
  c.port_bandwidth = parse_double(take(cur, line_no), line_no);
  c.delta = take_int(cur, line_no);
  c.reallocate_on_completion = take_int(cur, line_no) != 0;
  c.check_capacity = take_int(cur, line_no) != 0;
  c.skip_quiescent_epochs = take_int(cur, line_no) != 0;
  c.event_driven = take_int(cur, line_no) != 0;
  c.record_results = take_int(cur, line_no) != 0;
  c.max_sim_time = take_int(cur, line_no);
  c.max_stall_epochs = static_cast<int>(take_int(cur, line_no));
  c.max_requeue_attempts = static_cast<int>(take_int(cur, line_no));
  c.strict_input = take_int(cur, line_no) != 0;
  // A leftover token means a different layout, not extra data: a 12-value
  // line from before the <shards> field was dropped would otherwise shift
  // stall/requeue/strict one field over without a word.
  if (const std::string_view extra = cur.next(); !extra.empty()) {
    std::string what = "config record has more than 11 values (extra '";
    what += extra;
    what += "'; a 12-value C line predates the removal of the <shards> field)";
    bad_line(line_no, what);
  }
  return c;
}

}  // namespace

// ------------------------------------------------------ event-line grammar

std::string format_event_line(const workload::WorkloadEvent& ev) {
  std::string line;
  switch (ev.kind) {
    case workload::WorkloadEvent::Kind::kArrival: {
      // coflow.arrival is journaled even though it normally equals the
      // event time: tolerant-mode fault streams carry mismatches, and the
      // replay must reproduce the defect, not repair it.
      line = "A " + std::to_string(ev.time) + ' ' +
             std::to_string(ev.coflow.id.value) + ' ' +
             std::to_string(ev.coflow.job.value) + ' ' +
             std::to_string(ev.coflow.stage) + ' ' +
             std::to_string(ev.coflow.arrival) + ' ' +
             std::to_string(ev.data_ready) + ' ' +
             std::to_string(ev.coflow.flows.size());
      for (const FlowSpec& f : ev.coflow.flows) {
        line += ' ' + std::to_string(f.src) + ' ' + std::to_string(f.dst) +
                ' ' + std::to_string(f.size);
      }
      break;
    }
    case workload::WorkloadEvent::Kind::kDynamics:
      line = "D " + std::to_string(ev.time) + ' ' +
             std::to_string(static_cast<int>(ev.dynamics.kind)) + ' ' +
             std::to_string(ev.dynamics.port);
      append_double(line, ev.dynamics.capacity_factor);
      break;
    case workload::WorkloadEvent::Kind::kDataAvailable:
      line = "G " + std::to_string(ev.time) + ' ' +
             std::to_string(ev.gated.value);
      break;
  }
  return line;
}

std::optional<workload::WorkloadEvent> parse_event_line(
    const std::string& line, std::int64_t line_no) {
  TokenCursor cur(line);
  const std::string_view tag = cur.next();
  if (tag.empty()) return std::nullopt;
  workload::WorkloadEvent ev;
  if (tag == "A") {
    ev.kind = workload::WorkloadEvent::Kind::kArrival;
    ev.time = take_int(cur, line_no);
    ev.coflow.id = CoflowId{take_int(cur, line_no)};
    ev.coflow.job = JobId{take_int(cur, line_no)};
    ev.coflow.stage = static_cast<int>(take_int(cur, line_no));
    ev.coflow.arrival = take_int(cur, line_no);
    ev.data_ready = take_int(cur, line_no);
    const std::int64_t n = take_int(cur, line_no);
    if (n < 0) bad_line(line_no, "negative flow count");
    ev.coflow.flows.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      FlowSpec f;
      f.src = static_cast<PortIndex>(take_int(cur, line_no));
      f.dst = static_cast<PortIndex>(take_int(cur, line_no));
      f.size = take_int(cur, line_no);
      ev.coflow.flows.push_back(f);
    }
  } else if (tag == "D") {
    ev.kind = workload::WorkloadEvent::Kind::kDynamics;
    ev.time = take_int(cur, line_no);
    ev.dynamics.time = ev.time;
    ev.dynamics.kind =
        static_cast<DynamicsEvent::Kind>(take_int(cur, line_no));
    ev.dynamics.port = static_cast<PortIndex>(take_int(cur, line_no));
    ev.dynamics.capacity_factor = parse_double(take(cur, line_no), line_no);
  } else if (tag == "G") {
    ev.kind = workload::WorkloadEvent::Kind::kDataAvailable;
    ev.time = take_int(cur, line_no);
    ev.gated = CoflowId{take_int(cur, line_no)};
  } else {
    bad_line(line_no, "unknown event tag '" + std::string(tag) + "'");
  }
  return ev;
}

// --------------------------------------------------------- RecordingSource

RecordingSource::RecordingSource(
    std::shared_ptr<workload::WorkloadSource> inner, std::ostream& out,
    const SimConfig& config, std::int64_t seed)
    : inner_(std::move(inner)), out_(out) {
  SAATH_EXPECTS(inner_ != nullptr);
  out_ << "SAATHJ1 " << inner_->num_ports() << ' ' << seed << ' '
       << inner_->name() << '\n';
  std::string line;
  write_config(line, config);
  out_ << line << '\n';
  out_.flush();
}

RecordingSource::RecordingSource(
    std::shared_ptr<workload::WorkloadSource> inner, std::ostream& out,
    append_mode_t)
    : inner_(std::move(inner)), out_(out) {
  SAATH_EXPECTS(inner_ != nullptr);
}

workload::WorkloadEvent RecordingSource::next() {
  workload::WorkloadEvent ev = inner_->next();
  // Line-then-flush BEFORE handing the event to the engine: a kill mid-run
  // leaves a journal whose prefix is exactly the consumed stream.
  out_ << format_event_line(ev) << '\n';
  out_.flush();
  return ev;
}

// ------------------------------------------------------------ ReplaySource

ReplaySource::ReplaySource(std::istream& in) : in_(in) {
  std::string line;
  if (!std::getline(in_, line)) {
    throw std::runtime_error("journal: empty stream");
  }
  ++line_no_;
  TokenCursor hdr(line);
  const std::string_view magic = hdr.next();
  if (magic != "SAATHJ1") {
    throw std::runtime_error("journal: bad magic '" + std::string(magic) +
                             "'");
  }
  num_ports_ = static_cast<int>(take_int(hdr, line_no_));
  seed_ = take_int(hdr, line_no_);
  // Everything after the seed is the recorded name (may contain spaces).
  name_ = hdr.rest();
  if (!name_.empty() && name_.front() == ' ') name_.erase(0, 1);
  if (!std::getline(in_, line)) {
    throw std::runtime_error("journal: missing config line");
  }
  ++line_no_;
  TokenCursor cfg(line);
  const std::string_view tag = cfg.next();
  if (tag != "C") {
    throw std::runtime_error("journal: expected config line, got '" +
                             std::string(tag) + "'");
  }
  config_ = read_config(cfg, line_no_);
}

void ReplaySource::fill() {
  if (next_.has_value()) return;
  std::string line;
  while (std::getline(in_, line)) {
    ++line_no_;
    if (auto ev = parse_event_line(line, line_no_)) {
      next_ = std::move(*ev);
      return;
    }
  }
}

SimTime ReplaySource::peek_next_time() {
  fill();
  return next_.has_value() ? next_->time : kNever;
}

workload::WorkloadEvent ReplaySource::next() {
  fill();
  SAATH_EXPECTS(next_.has_value());
  workload::WorkloadEvent ev = std::move(*next_);
  next_.reset();
  return ev;
}

void ReplaySource::skip(std::int64_t n) {
  SAATH_EXPECTS(n >= 0);
  for (std::int64_t i = 0; i < n; ++i) {
    fill();
    if (!next_.has_value()) {
      throw std::runtime_error(
          "journal: checkpoint consumed " + std::to_string(n) +
          " events but the journal holds only " + std::to_string(i));
    }
    next_.reset();
  }
}

// ----------------------------------------------------------------- digests

namespace {

struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t result_digest(const SimResult& result) {
  // Canonical order regardless of how the records were accumulated.
  std::vector<const CoflowRecord*> recs;
  recs.reserve(result.coflows.size());
  for (const CoflowRecord& r : result.coflows) recs.push_back(&r);
  std::sort(recs.begin(), recs.end(),
            [](const CoflowRecord* a, const CoflowRecord* b) {
              return a->id < b->id;
            });
  Fnv fnv;
  fnv.str(result.scheduler);
  fnv.str(result.trace);
  fnv.i64(result.makespan);
  fnv.i64(static_cast<std::int64_t>(recs.size()));
  for (const CoflowRecord* r : recs) {
    fnv.i64(r->id.value);
    fnv.i64(r->job.value);
    fnv.i64(r->stage);
    fnv.i64(r->arrival);
    fnv.i64(r->finish);
    fnv.i64(r->width);
    fnv.i64(r->total_bytes);
    fnv.i64(static_cast<std::int64_t>(r->equal_flow_lengths));
    for (const double fct : r->flow_fcts_seconds) fnv.f64(fct);
    for (const double sz : r->flow_sizes) fnv.f64(sz);
  }
  return fnv.h;
}

std::string result_digest_hex(const SimResult& result) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(result_digest(result)));
  return buf;
}

}  // namespace saath::replay
