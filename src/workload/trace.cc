#include "workload/trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_set>

#include "common/atomic_file.h"
#include "common/csv.h"
#include "common/fault.h"

namespace tbf {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void EmitRegion(std::ostringstream* out, const BBox& region) {
  *out << "region," << FormatDouble(region.min_x) << ','
       << FormatDouble(region.min_y) << ',' << FormatDouble(region.max_x)
       << ',' << FormatDouble(region.max_y) << '\n';
}

Result<double> ParseNumber(const std::string& cell, const char* what,
                           size_t row) {
  char* end = nullptr;
  double v = std::strtod(cell.c_str(), &end);
  if (cell.empty() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument(std::string("bad ") + what + " at row " +
                                   std::to_string(row));
  }
  return v;
}

// A `region,min_x,min_y,max_x,max_y` row (row `r`).
Result<BBox> ParseRegion(const std::vector<std::string>& row, size_t r) {
  if (row.size() != 5) {
    return Status::InvalidArgument("region row needs 4 coordinates");
  }
  TBF_ASSIGN_OR_RETURN(double x0, ParseNumber(row[1], "min_x", r));
  TBF_ASSIGN_OR_RETURN(double y0, ParseNumber(row[2], "min_y", r));
  TBF_ASSIGN_OR_RETURN(double x1, ParseNumber(row[3], "max_x", r));
  TBF_ASSIGN_OR_RETURN(double y1, ParseNumber(row[4], "max_y", r));
  if (x1 <= x0 || y1 <= y0) {
    return Status::InvalidArgument("region must have positive area");
  }
  return BBox(x0, y0, x1, y1);
}

struct ParsedTrace {
  BBox region;
  bool has_region = false;
  std::vector<Point> workers;
  std::vector<double> radii;  // NaN-free; empty when no radius column
  std::vector<Point> tasks;
};

Result<ParsedTrace> ParseTrace(const std::string& text) {
  TBF_ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
  ParsedTrace trace;
  bool any_radius = false;
  for (size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.empty()) continue;
    const std::string& kind = row[0];
    if (kind == "region") {
      TBF_ASSIGN_OR_RETURN(trace.region, ParseRegion(row, r));
      trace.has_region = true;
    } else if (kind == "worker") {
      if (row.size() != 3 && row.size() != 4) {
        return Status::InvalidArgument("worker row needs x,y[,radius] at row " +
                                       std::to_string(r));
      }
      TBF_ASSIGN_OR_RETURN(double x, ParseNumber(row[1], "x", r));
      TBF_ASSIGN_OR_RETURN(double y, ParseNumber(row[2], "y", r));
      trace.workers.push_back({x, y});
      if (row.size() == 4) {
        TBF_ASSIGN_OR_RETURN(double radius, ParseNumber(row[3], "radius", r));
        if (radius < 0) return Status::InvalidArgument("negative radius");
        trace.radii.push_back(radius);
        any_radius = true;
      } else if (any_radius) {
        return Status::InvalidArgument("mixed worker rows with/without radius");
      }
    } else if (kind == "task") {
      if (row.size() != 3) {
        return Status::InvalidArgument("task row needs x,y at row " +
                                       std::to_string(r));
      }
      TBF_ASSIGN_OR_RETURN(double x, ParseNumber(row[1], "x", r));
      TBF_ASSIGN_OR_RETURN(double y, ParseNumber(row[2], "y", r));
      trace.tasks.push_back({x, y});
    } else {
      return Status::InvalidArgument("unknown row kind '" + kind + "' at row " +
                                     std::to_string(r));
    }
  }
  if (!trace.has_region) return Status::InvalidArgument("missing region row");
  if (any_radius && trace.radii.size() != trace.workers.size()) {
    return Status::InvalidArgument("mixed worker rows with/without radius");
  }
  for (const Point& p : trace.workers) {
    if (!trace.region.Contains(p)) {
      return Status::OutOfRange("worker outside the declared region");
    }
  }
  for (const Point& p : trace.tasks) {
    if (!trace.region.Contains(p)) {
      return Status::OutOfRange("task outside the declared region");
    }
  }
  return trace;
}

}  // namespace

std::string WriteInstanceTrace(const OnlineInstance& instance) {
  std::ostringstream out;
  EmitRegion(&out, instance.region);
  for (const Point& w : instance.workers) {
    out << "worker," << FormatDouble(w.x) << ',' << FormatDouble(w.y) << '\n';
  }
  for (const Point& t : instance.tasks) {
    out << "task," << FormatDouble(t.x) << ',' << FormatDouble(t.y) << '\n';
  }
  return out.str();
}

std::string WriteInstanceTrace(const CaseStudyInstance& instance) {
  std::ostringstream out;
  EmitRegion(&out, instance.region);
  for (size_t i = 0; i < instance.workers.size(); ++i) {
    out << "worker," << FormatDouble(instance.workers[i].x) << ','
        << FormatDouble(instance.workers[i].y) << ','
        << FormatDouble(instance.radii[i]) << '\n';
  }
  for (const Point& t : instance.tasks) {
    out << "task," << FormatDouble(t.x) << ',' << FormatDouble(t.y) << '\n';
  }
  return out.str();
}

Result<OnlineInstance> ReadInstanceTrace(const std::string& text) {
  TBF_ASSIGN_OR_RETURN(ParsedTrace trace, ParseTrace(text));
  if (!trace.radii.empty()) {
    return Status::InvalidArgument(
        "trace has radii; load it with ReadCaseStudyTrace");
  }
  OnlineInstance instance;
  instance.region = trace.region;
  instance.workers = std::move(trace.workers);
  instance.tasks = std::move(trace.tasks);
  return instance;
}

Result<std::string> WriteEventTrace(const EventTrace& trace) {
  std::ostringstream out;
  EmitRegion(&out, trace.region);
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const TimedEvent& event = trace.events[i];
    // The schema is plain CSV with no quoting: refuse ids (and times) it
    // cannot carry instead of emitting a file that will not read back.
    if (event.id.empty() ||
        event.id.find_first_of(",\n\r") != std::string::npos) {
      return Status::InvalidArgument(
          "event id unrepresentable in the CSV schema at event " +
          std::to_string(i));
    }
    if (!std::isfinite(event.time)) {
      return Status::InvalidArgument("non-finite event time at event " +
                                     std::to_string(i));
    }
    out << "event," << FormatDouble(event.time) << ',';
    switch (event.kind) {
      case EventKind::kWorkerArrival:
        out << "worker," << event.id << ',' << FormatDouble(event.location.x)
            << ',' << FormatDouble(event.location.y);
        break;
      case EventKind::kTaskArrival:
        out << "task," << event.id << ',' << FormatDouble(event.location.x)
            << ',' << FormatDouble(event.location.y);
        break;
      case EventKind::kWorkerDeparture:
        out << "depart," << event.id;
        break;
    }
    out << '\n';
  }
  return out.str();
}

Result<EventTrace> ReadEventTrace(const std::string& text) {
  // Injection site "trace.read": lets the chaos harness simulate ingest
  // failures (corrupt storage, truncated reads) without touching the file.
  TBF_RETURN_NOT_OK(TBF_FAULT_INJECT("trace.read"));
  TBF_ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
  EventTrace trace;
  bool has_region = false;
  double last_time = 0.0;
  bool any_event = false;
  // Active-set id tracking: a worker id may re-arrive only after departing;
  // task ids are one-shot. Duplicate ids would otherwise surface deep in
  // the serving engine as confusing AlreadyExists/NotFound statuses (or,
  // worse, silently double-count in offline analysis).
  std::unordered_set<std::string> active_workers;
  std::unordered_set<std::string> task_ids;
  for (size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.empty()) continue;
    const std::string& kind = row[0];
    if (kind == "region") {
      TBF_ASSIGN_OR_RETURN(trace.region, ParseRegion(row, r));
      has_region = true;
    } else if (kind == "event") {
      if (row.size() < 4) {
        return Status::InvalidArgument("event row too short at row " +
                                       std::to_string(r));
      }
      TimedEvent event;
      TBF_ASSIGN_OR_RETURN(event.time, ParseNumber(row[1], "time", r));
      // strtod happily parses "nan"/"inf"; both would poison the epoch
      // arithmetic downstream (NaN also defeats the ordering check).
      if (!std::isfinite(event.time)) {
        return Status::InvalidArgument("non-finite event time at row " +
                                       std::to_string(r));
      }
      if (any_event && event.time < last_time) {
        return Status::InvalidArgument(
            "event times must be nondecreasing (row " + std::to_string(r) +
            ")");
      }
      const std::string& what = row[2];
      if (what == "worker" || what == "task") {
        if (row.size() != 6) {
          return Status::InvalidArgument(
              "arrival event needs time,kind,id,x,y at row " +
              std::to_string(r));
        }
        event.kind = what == "worker" ? EventKind::kWorkerArrival
                                      : EventKind::kTaskArrival;
        event.id = row[3];
        TBF_ASSIGN_OR_RETURN(event.location.x, ParseNumber(row[4], "x", r));
        TBF_ASSIGN_OR_RETURN(event.location.y, ParseNumber(row[5], "y", r));
        if (has_region && !trace.region.Contains(event.location)) {
          return Status::OutOfRange("event location (" +
                                    FormatDouble(event.location.x) + ", " +
                                    FormatDouble(event.location.y) +
                                    ") outside the declared region at row " +
                                    std::to_string(r));
        }
        if (event.kind == EventKind::kWorkerArrival) {
          if (!active_workers.insert(event.id).second) {
            return Status::InvalidArgument(
                "duplicate arrival of active worker '" + event.id +
                "' at row " + std::to_string(r));
          }
        } else {
          if (!task_ids.insert(event.id).second) {
            return Status::InvalidArgument("duplicate task id '" + event.id +
                                           "' at row " + std::to_string(r));
          }
        }
      } else if (what == "depart") {
        if (row.size() != 4) {
          return Status::InvalidArgument(
              "depart event needs time,depart,id at row " + std::to_string(r));
        }
        event.kind = EventKind::kWorkerDeparture;
        event.id = row[3];
        if (active_workers.erase(event.id) == 0) {
          return Status::InvalidArgument(
              "departure of absent worker '" + event.id + "' at row " +
              std::to_string(r) + " (never arrived or already departed)");
        }
      } else {
        return Status::InvalidArgument("unknown event kind '" + what +
                                       "' at row " + std::to_string(r));
      }
      if (event.id.empty()) {
        return Status::InvalidArgument("empty event id at row " +
                                       std::to_string(r));
      }
      last_time = event.time;
      any_event = true;
      trace.events.push_back(std::move(event));
    } else {
      return Status::InvalidArgument("unknown row kind '" + kind +
                                     "' in event trace at row " +
                                     std::to_string(r));
    }
  }
  if (!has_region) return Status::InvalidArgument("missing region row");
  for (const TimedEvent& event : trace.events) {
    if (event.kind != EventKind::kWorkerDeparture &&
        !trace.region.Contains(event.location)) {
      return Status::OutOfRange("event outside the declared region");
    }
  }
  return trace;
}

Result<CaseStudyInstance> ReadCaseStudyTrace(const std::string& text) {
  TBF_ASSIGN_OR_RETURN(ParsedTrace trace, ParseTrace(text));
  if (trace.radii.size() != trace.workers.size()) {
    return Status::InvalidArgument("trace lacks radii; use ReadInstanceTrace");
  }
  CaseStudyInstance instance;
  instance.region = trace.region;
  instance.workers = std::move(trace.workers);
  instance.radii = std::move(trace.radii);
  instance.tasks = std::move(trace.tasks);
  return instance;
}

Status WriteInstanceTraceFile(const OnlineInstance& instance,
                              const std::string& path) {
  return WriteFileAtomic(path, WriteInstanceTrace(instance), "trace");
}

Status WriteInstanceTraceFile(const CaseStudyInstance& instance,
                              const std::string& path) {
  return WriteFileAtomic(path, WriteInstanceTrace(instance), "trace");
}

Status WriteEventTraceFile(const EventTrace& trace, const std::string& path) {
  TBF_ASSIGN_OR_RETURN(std::string text, WriteEventTrace(trace));
  return WriteFileAtomic(path, text, "trace");
}

Result<OnlineInstance> ReadInstanceTraceFile(const std::string& path) {
  TBF_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path, "trace"));
  return ReadInstanceTrace(text);
}

Result<CaseStudyInstance> ReadCaseStudyTraceFile(const std::string& path) {
  TBF_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path, "trace"));
  return ReadCaseStudyTrace(text);
}

Result<EventTrace> ReadEventTraceFile(const std::string& path) {
  TBF_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path, "trace"));
  return ReadEventTrace(text);
}

}  // namespace tbf
