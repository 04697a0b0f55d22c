#include "replay/run_log.hpp"

#include <fstream>
#include <istream>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace stayaway::replay {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw PreconditionError("run-log line " + std::to_string(line) + ": " +
                          message);
}

}  // namespace

std::string serialize_run_log(const RunLog& log) {
  std::string out = "stayaway-runlog v" + std::to_string(RunLog::kVersion) +
                    "\n";
  if (!log.detector.empty()) out += "detector = " + log.detector + "\n";
  // The scenario block is framed by an exact line count, so its body
  // needs no escaping and can never be confused with log keywords.
  std::size_t scenario_lines = 0;
  for (char c : log.scenario_text) {
    if (c == '\n') ++scenario_lines;
  }
  std::string scenario = log.scenario_text;
  if (!scenario.empty() && scenario.back() != '\n') {
    scenario += '\n';
    ++scenario_lines;
  }
  out += "scenario " + std::to_string(scenario_lines) + "\n";
  out += scenario;
  for (const HostStream& host : log.hosts) {
    out += "records \"" + host.name + "\" " +
           std::to_string(host.records.size()) + "\n";
    for (const std::string& line : host.records) {
      out += line;
      out += '\n';
    }
  }
  // Coordinator decision log (DESIGN.md §18): framed by an exact line
  // count like the scenario block, always the last section. Omitted for
  // coordinator-free runs so their historical encoding is untouched.
  if (!log.cluster_events.empty()) {
    out += "cluster-events " + std::to_string(log.cluster_events.size()) +
           "\n";
    for (const std::string& line : log.cluster_events) {
      out += line;
      out += '\n';
    }
  }
  out += "end\n";
  return out;
}

RunLog parse_run_log(std::istream& in) {
  RunLog log;
  std::string line;
  std::size_t line_no = 0;
  auto read_line = [&in, &line, &line_no](const char* what) {
    if (!std::getline(in, line)) {
      fail(line_no + 1, std::string("unexpected end of log (expected ") +
                            what + ")");
    }
    ++line_no;
    // getline only leaves eofbit set when the stream ran dry before the
    // delimiter: the final line lost its newline, i.e. the log was
    // truncated mid-line. Rejecting it here keeps a half-written record
    // from parsing as a complete one.
    if (in.eof()) {
      fail(line_no, "truncated log: final line is missing its newline");
    }
  };

  read_line("header");
  if (line != "stayaway-runlog v" + std::to_string(RunLog::kVersion)) {
    fail(line_no, "bad header '" + line + "' (expected stayaway-runlog v" +
                      std::to_string(RunLog::kVersion) + ")");
  }
  read_line("detector or scenario");
  if (line.rfind("detector = ", 0) == 0) {
    log.detector = line.substr(11);
    read_line("scenario");
  }
  if (line.rfind("scenario ", 0) != 0) {
    fail(line_no, "expected 'scenario <line-count>', got '" + line + "'");
  }
  std::uint64_t scenario_lines = 0;
  if (!parse_u64(line.substr(9), scenario_lines)) {
    fail(line_no, "bad scenario line count '" + line.substr(9) + "'");
  }
  for (std::uint64_t i = 0; i < scenario_lines; ++i) {
    read_line("scenario body");
    log.scenario_text += line;
    log.scenario_text += '\n';
  }

  read_line("records or end");
  while (line != "end") {
    if (line.rfind("cluster-events ", 0) == 0) {
      if (!log.cluster_events.empty()) {
        fail(line_no, "duplicate cluster-events section");
      }
      std::uint64_t events = 0;
      if (!parse_u64(line.substr(15), events) || events == 0) {
        fail(line_no, "bad cluster-events count '" + line.substr(15) + "'");
      }
      for (std::uint64_t i = 0; i < events; ++i) {
        read_line("cluster event");
        log.cluster_events.push_back(line);
      }
      read_line("end");
      if (line != "end") {
        fail(line_no, "cluster-events must be the last section before 'end'");
      }
      continue;
    }
    if (line.rfind("records \"", 0) != 0) {
      fail(line_no, "expected 'records \"<host>\" <count>', got '" + line +
                        "'");
    }
    std::size_t close = line.find('"', 9);
    if (close == std::string::npos || close + 2 > line.size() ||
        line[close + 1] != ' ') {
      fail(line_no, "malformed records header");
    }
    HostStream host;
    host.name = line.substr(9, close - 9);
    if (host.name.empty()) fail(line_no, "empty host name");
    std::uint64_t count = 0;
    if (!parse_u64(line.substr(close + 2), count)) {
      fail(line_no, "bad record count '" + line.substr(close + 2) + "'");
    }
    host.records.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      read_line("record line");
      host.records.push_back(line);
    }
    for (const HostStream& existing : log.hosts) {
      if (existing.name == host.name) {
        fail(line_no, "duplicate host stream '" + host.name + "'");
      }
    }
    log.hosts.push_back(std::move(host));
    read_line("records or end");
  }
  return log;
}

void save_run_log(const RunLog& log, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  SA_REQUIRE(out.good(), "cannot open run-log for writing: " + path);
  std::string text = serialize_run_log(log);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  SA_REQUIRE(out.good(), "failed writing run-log: " + path);
}

RunLog load_run_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SA_REQUIRE(in.good(), "cannot open run-log: " + path);
  return parse_run_log(in);
}

}  // namespace stayaway::replay
