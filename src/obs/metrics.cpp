#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace easybo::obs {

namespace {

/// "%.17g": reads back exactly but is not the shortest form (metrics_v1.json
/// pins these bytes). JSON has no inf/nan; metrics values never are.
std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Counter/phase names are generated in-repo (dotted lowercase paths),
/// but escape the JSON-special characters anyway so a hostile name can
/// not produce invalid output.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::uint64_t MetricsReport::counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double MetricsReport::phase_seconds(std::string_view name) const {
  for (const auto& p : phases) {
    if (p.name == name) return p.seconds;
  }
  return 0.0;
}

void MetricsReport::merge(const MetricsReport& other) {
  for (const auto& p : other.phases) {
    auto it = std::find_if(phases.begin(), phases.end(),
                           [&](const PhaseStat& q) { return q.name == p.name; });
    if (it == phases.end()) {
      phases.push_back(p);
    } else {
      it->seconds += p.seconds;
      it->spans += p.spans;
    }
  }
  for (const auto& c : other.counters) {
    auto it = std::find_if(
        counters.begin(), counters.end(),
        [&](const CounterStat& d) { return d.name == c.name; });
    if (it == counters.end()) {
      counters.push_back(c);
    } else {
      it->value += c.value;
    }
  }
  std::sort(counters.begin(), counters.end(),
            [](const CounterStat& a, const CounterStat& b) {
              return a.name < b.name;
            });
  for (const auto& w : other.workers) {
    auto it = std::find_if(
        workers.begin(), workers.end(),
        [&](const WorkerStat& v) { return v.worker == w.worker; });
    if (it == workers.end()) {
      workers.push_back(w);
    } else {
      it->busy_seconds += w.busy_seconds;
      it->idle_seconds += w.idle_seconds;
    }
  }
  std::sort(workers.begin(), workers.end(),
            [](const WorkerStat& a, const WorkerStat& b) {
              return a.worker < b.worker;
            });
  for (const auto& e : other.evals) {
    evals.push_back(e);
    evals.back().index = evals.size() - 1;
  }
  makespan_seconds += other.makespan_seconds;
}

std::string MetricsReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"easybo.metrics.v1\"";
  os << ",\"makespan_seconds\":" << json_number(makespan_seconds);
  os << ",\"phases\":{";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(phases[i].name)
       << "\":{\"seconds\":" << json_number(phases[i].seconds)
       << ",\"spans\":" << phases[i].spans << '}';
  }
  os << "},\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(counters[i].name) << "\":" << counters[i].value;
  }
  os << "},\"workers\":[";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (i) os << ',';
    os << "{\"worker\":" << workers[i].worker
       << ",\"busy_seconds\":" << json_number(workers[i].busy_seconds)
       << ",\"idle_seconds\":" << json_number(workers[i].idle_seconds)
       << '}';
  }
  os << "],\"evals\":[";
  for (std::size_t i = 0; i < evals.size(); ++i) {
    if (i) os << ',';
    os << "{\"index\":" << evals[i].index
       << ",\"status\":\"" << json_escape(evals[i].status)
       << "\",\"action\":\"" << json_escape(evals[i].action)
       << "\",\"attempts\":" << evals[i].attempts
       << ",\"worker\":" << evals[i].worker
       << ",\"start\":" << json_number(evals[i].start)
       << ",\"finish\":" << json_number(evals[i].finish) << '}';
  }
  os << "]}";
  return os.str();
}

std::string MetricsReport::to_csv() const {
  std::ostringstream os;
  os << "section,name,value\n";
  for (const auto& p : phases) {
    os << "phase_seconds," << p.name << ',' << json_number(p.seconds)
       << '\n';
    os << "phase_spans," << p.name << ',' << p.spans << '\n';
  }
  for (const auto& c : counters) {
    os << "counter," << c.name << ',' << c.value << '\n';
  }
  for (const auto& w : workers) {
    os << "worker_busy," << w.worker << ','
       << json_number(w.busy_seconds) << '\n';
    os << "worker_idle," << w.worker << ','
       << json_number(w.idle_seconds) << '\n';
  }
  os << "makespan_seconds,," << json_number(makespan_seconds) << '\n';
  return os.str();
}

}  // namespace easybo::obs
