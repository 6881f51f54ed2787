#include "tc/obs/flight_recorder.h"

#include <sstream>

#include "tc/obs/exporter.h"

namespace tc::obs {

std::string FlightDump::ToJson() const {
  std::ostringstream out;
  out << "{\"seq\":" << seq << ",\"ts\":" << t_us << ",\"reason\":\""
      << JsonEscape(reason) << "\",\"detail\":\"" << JsonEscape(detail)
      << "\",\"trace_context\":{\"trace\":" << context.trace_id
      << ",\"span\":" << context.span_id << "},\"trace\":";
  out << Exporter::ToChromeTraceJson(trace);
  out << ",\"metrics\":" << obs::ToJson(metrics) << ",\"journal_tail\":[";
  bool first = true;
  for (const AuditRecord& rec : journal_tail) {
    out << (first ? "" : ",") << "{\"index\":" << rec.index
        << ",\"kind\":\"" << AuditKindName(rec.kind) << "\",\"subject\":\""
        << JsonEscape(rec.subject) << "\",\"action\":\""
        << JsonEscape(rec.action) << "\",\"object\":\""
        << JsonEscape(rec.object)
        << "\",\"allowed\":" << (rec.allowed ? "true" : "false")
        << ",\"detail\":\"" << JsonEscape(rec.detail)
        << "\",\"trace\":" << rec.trace_id << ",\"span\":" << rec.span_id
        << "}";
    first = false;
  }
  out << "]}";
  return out.str();
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // Never destroyed.
  return *recorder;
}

void FlightRecorder::Trigger(const std::string& reason,
                             const std::string& detail,
                             const AuditJournal* journal) {
  FlightDump dump;
  dump.t_us = detail::SteadyNowUs();
  dump.reason = reason;
  dump.detail = detail;
  dump.context = CurrentContext();
  // Each snapshot is internally consistent; they are taken back-to-back
  // (microseconds apart) rather than under one global lock, since the ring
  // and registry have their own locks and a cross-subsystem lock order
  // here could deadlock against the failure path that triggered us.
  dump.trace = TraceRing::Global().Snapshot();
  dump.metrics = MetricRegistry::Global().Snapshot();
  if (journal != nullptr) dump.journal_tail = journal->Tail(kJournalTail);
  std::lock_guard<std::mutex> lock(mu_);
  dump.seq = total_++;
  dumps_.push_back(std::move(dump));
  if (dumps_.size() > kMaxDumps) dumps_.pop_front();
}

std::vector<FlightDump> FlightRecorder::Dumps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<FlightDump>(dumps_.begin(), dumps_.end());
}

uint64_t FlightRecorder::total_triggers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  dumps_.clear();
  total_ = 0;
}

}  // namespace tc::obs
