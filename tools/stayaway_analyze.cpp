// stayaway_analyze: multi-pass static analyzer for the repo (DESIGN.md
// §16). Grown out of the old line-regex stayaway_lint: the line scanner
// is replaced by a real tokenizer (comment-, string-, raw-string- and
// preprocessor-aware), and the single rule list by five passes that each
// walk the token stream:
//
//   include-graph    every `#include "module/..."` must respect the
//                    declared layering table (util depends on nothing,
//                    apps never include core, stages/ may only see
//                    sim/vm.hpp from sim, ...). The checkpoint codec
//                    (src/core/checkpoint.*) is its own table entry
//                    sitting above core, and pipeline stages may never
//                    include it: stages describe their state through
//                    the util::StateIO handed to persist(), the
//                    envelope / checksum / restore I/O stays in the
//                    supervisor layer. The cluster coordinator (src/core/cluster/)
//                    is likewise its own entry above core and may never
//                    include sim/ (not even sim/vm.hpp): it reads hosts
//                    through the core/pipeline.hpp seam and takes IDs
//                    from core/stages/stage.hpp. One parallelism axis:
//                    fleet workers are the library's only threads, so
//                    under src/ only the fleet runner
//                    (src/harness/fleet.cpp) may include
//                    util/thread_pool.hpp, and only the team itself
//                    (src/util/thread_pool.*) may include <thread> or
//                    name std::thread / std::jthread.
//   lock-discipline  any mutable field of a class that owns a mutex must
//                    carry SA_GUARDED_BY / SA_PT_GUARDED_BY
//                    (src/util/annotations.hpp) or an explicit
//                    `// sa-lint: unguarded(<reason>)` waiver on or
//                    just above its declaration. Mutex/cv/atomic members
//                    are exempt (they are the synchronization); the pass
//                    keys on the repo's `name_` member-suffix convention
//                    (pinned by .clang-tidy identifier naming).
//   determinism      rand/srand (called), std::random_device, and the
//                    system/steady/high_resolution clocks plus getenv
//                    are banned in the deterministic domain (core/,
//                    stats/, linalg/, mds/, sim/, replay/): every
//                    stochastic or environmental input must flow through
//                    an explicitly seeded util/rng Rng or a config knob,
//                    or experiments stop reproducing. The standard raw
//                    engines (mt19937*, minstd_rand*, ranlux*, knuth_b,
//                    default_random_engine) are banned in all of src/
//                    outside util/rng.*: their draws go uncounted, so a
//                    `<seed> <draws>` checkpoint cannot restore them.
//   style            `#pragma once` in every header, no `using
//                    namespace` in headers, no naked new/delete in
//                    library or tool code, no std::cout/cerr/clog in
//                    library code (the obs sinks own output), no direct
//                    HostSampler::sample() calls outside the synchronous
//                    SampleSource, and no sim::SimHost mention inside
//                    pipeline stages (the ActuationPort seam).
//   test-only-api    every public function declared in a src/ header
//                    must be named somewhere outside tests/ other than
//                    its own declarations and definitions (a member
//                    function by a call or a Class::name reference):
//                    src/ (its own files included), tools/, bench/,
//                    examples/ and perfbench/ are its users, tests/ only
//                    exercises it.
//                    An accessor kept so tests can observe state carries
//                    a `// sa-lint: test-observer(<reason>)` waiver. This
//                    pass needs every file at once, so it runs after the
//                    per-file passes, over all roots together; scan every
//                    directory that calls into src/, or names used only
//                    by a left-out directory are reported.
//
// Usage:
//   stayaway_analyze [--format=text|json] <root>...
//   stayaway_analyze --self-test
//
// Zero dependencies beyond the standard library; registered as ctests
// (analyze.selftest, analyze.repo) so tier-1 fails on a violation, and
// driven standalone by `ci.sh --analyze`.
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Findings

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string pass;
  std::string rule;
  std::string message;
};

bool finding_order(const Finding& a, const Finding& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  return a.message < b.message;
}

// ---------------------------------------------------------------------------
// Tokenizer

enum class Tok {
  Ident,       // identifiers and keywords
  Number,      // numeric literals (digit separators consumed)
  Str,         // "..." (escapes handled)
  CharLit,     // '...'
  RawStr,      // R"delim(...)delim"
  Punct,       // punctuation; "::" and "->" are single tokens
  Comment,     // // or /* */; text retained for waiver scanning
  Directive,   // the keyword of a line-leading #directive
  HeaderName,  // the "name" / <name> operand of #include
};

struct Token {
  Tok kind;
  std::string text;
  std::size_t line = 0;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::vector<Token> tokenize(const std::string& src) {
  std::vector<Token> out;
  std::size_t i = 0;
  std::size_t line = 1;
  const std::size_t n = src.size();
  bool at_line_start = true;  // only whitespace seen since the last \n

  auto peek = [&](std::size_t k) -> char {
    return (i + k < n) ? src[i + k] : '\0';
  };
  auto count_newlines = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to && k < n; ++k) {
      if (src[k] == '\n') ++line;
    }
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && peek(1) == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      out.push_back({Tok::Comment, src.substr(i, end - i), line});
      i = end;
      continue;
    }
    // Block comment (may span lines).
    if (c == '/' && peek(1) == '*') {
      std::size_t end = src.find("*/", i + 2);
      std::size_t stop = (end == std::string::npos) ? n : end + 2;
      out.push_back({Tok::Comment, src.substr(i, stop - i), line});
      count_newlines(i, stop);
      i = stop;
      continue;
    }
    // Preprocessor directive at line start.
    if (c == '#' && at_line_start) {
      ++i;
      while (i < n && (src[i] == ' ' || src[i] == '\t')) ++i;
      std::size_t start = i;
      while (i < n && ident_char(src[i])) ++i;
      std::string word = src.substr(start, i - start);
      if (!word.empty()) out.push_back({Tok::Directive, word, line});
      if (word == "include") {
        while (i < n && (src[i] == ' ' || src[i] == '\t')) ++i;
        if (i < n && (src[i] == '"' || src[i] == '<')) {
          char close = (src[i] == '"') ? '"' : '>';
          std::size_t hstart = i + 1;
          std::size_t hend = hstart;
          while (hend < n && src[hend] != close && src[hend] != '\n') ++hend;
          std::string name = src.substr(hstart, hend - hstart);
          out.push_back({Tok::HeaderName,
                         (close == '>') ? "<" + name + ">" : name, line});
          i = (hend < n && src[hend] == close) ? hend + 1 : hend;
        }
      }
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    // Raw string literal.
    if (c == 'R' && peek(1) == '"' && (i == 0 || !ident_char(src[i - 1]))) {
      std::size_t paren = src.find('(', i + 2);
      if (paren != std::string::npos) {
        std::string closer =
            ")" + src.substr(i + 2, paren - (i + 2)) + "\"";
        std::size_t end = src.find(closer, paren + 1);
        std::size_t stop =
            (end == std::string::npos) ? n : end + closer.size();
        out.push_back({Tok::RawStr, "", line});
        count_newlines(i, stop);
        i = stop;
        continue;
      }
    }
    // String literal.
    if (c == '"') {
      std::size_t start_line = line;
      ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\') ++i;  // skip the escaped char
        if (i < n && src[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;  // closing quote
      out.push_back({Tok::Str, "", start_line});
      continue;
    }
    // Character literal. Digit separators never reach here: the number
    // lexer below consumes them as part of the numeric token.
    if (c == '\'') {
      ++i;
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\') ++i;
        ++i;
      }
      if (i < n) ++i;
      out.push_back({Tok::CharLit, "", line});
      continue;
    }
    // Number (handles 1'000'000, hex, exponents).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))) != 0)) {
      std::size_t start = i;
      ++i;
      while (i < n) {
        char d = src[i];
        if (ident_char(d) || d == '\'' || d == '.') {
          ++i;
        } else if ((d == '+' || d == '-') && i > start &&
                   (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                    src[i - 1] == 'p' || src[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      out.push_back({Tok::Number, src.substr(start, i - start), line});
      continue;
    }
    // Identifier / keyword.
    if (ident_char(c)) {
      std::size_t start = i;
      while (i < n && ident_char(src[i])) ++i;
      out.push_back({Tok::Ident, src.substr(start, i - start), line});
      continue;
    }
    // Punctuation; keep :: and -> whole for member/scope matching.
    if (c == ':' && peek(1) == ':') {
      out.push_back({Tok::Punct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && peek(1) == '>') {
      out.push_back({Tok::Punct, "->", line});
      i += 2;
      continue;
    }
    out.push_back({Tok::Punct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Source file model

struct SourceFile {
  std::string path;           // generic path; domain rules key off it
  std::vector<Token> tokens;  // comments included
  std::vector<std::size_t> waiver_lines;    // `// sa-lint: unguarded(...)`
  std::vector<std::size_t> observer_lines;  // `// sa-lint: test-observer(...)`
};

/// Lines of the `// sa-lint: <kind>(<reason>)` waivers in `tokens`. The
/// reason must be non-empty; the closing paren may sit on a continuation
/// comment line, so it is not demanded here.
std::vector<std::size_t> waivers(const std::vector<Token>& tokens,
                                 std::string_view kind) {
  std::vector<std::size_t> lines;
  const std::string open_text = std::string(kind) + "(";
  for (const Token& t : tokens) {
    if (t.kind != Tok::Comment) continue;
    std::size_t pos = t.text.find("sa-lint:");
    if (pos == std::string::npos) continue;
    std::size_t open = t.text.find(open_text, pos);
    if (open == std::string::npos) continue;
    std::size_t reason = open + open_text.size();
    if (reason < t.text.size() && t.text[reason] != ')') {
      lines.push_back(t.line);
    }
  }
  return lines;
}

SourceFile make_source(std::string path, const std::string& content) {
  SourceFile f;
  f.path = std::move(path);
  f.tokens = tokenize(content);
  f.waiver_lines = waivers(f.tokens, "unguarded");
  f.observer_lines = waivers(f.tokens, "test-observer");
  return f;
}

/// Consumes the first unused waiver on a declaration spanning
/// [first_line, name_line] or in the comment block just above it (up to
/// 4 lines), so one waiver covers exactly one declaration.
bool consume_waiver(std::vector<std::size_t>& lines, std::size_t first_line,
                    std::size_t name_line) {
  for (std::size_t& w : lines) {
    if (w != 0 && w <= name_line && w + 4 >= first_line) {
      w = 0;
      return true;
    }
  }
  return false;
}

bool is_header(const std::string& path) { return path.ends_with(".hpp"); }

bool path_has_dir(const std::string& path, std::string_view dir) {
  return path.find(dir) != std::string::npos;
}

/// The deterministic domain: modules whose outputs must be reproducible
/// from an explicit seed (sim/ so fault schedules stay seeded, replay/
/// so run-logs replay byte-identically).
bool deterministic_domain(const std::string& path) {
  for (const char* dir :
       {"core/", "stats/", "linalg/", "mds/", "sim/", "replay/"}) {
    if (path_has_dir(path, dir)) return true;
  }
  return false;
}

/// Library code: everything under src/.
bool library_code(const std::string& path) {
  return path_has_dir(path, "src/");
}

// ---------------------------------------------------------------------------
// Pass: include-graph (declared layering) + stage isolation

/// Module = first path component under src/. Returns "" for paths
/// outside src/ (tools, tests, bench — free to include anything).
std::string module_of(const std::string& path) {
  static const std::set<std::string> kModules = {
      "util", "linalg", "stats",    "mds",    "trace", "sim",    "obs",
      "apps", "monitor", "core",    "baseline", "replay", "harness"};
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (parts[i] == "src" && kModules.count(parts[i + 1]) != 0) {
      // The checkpoint codec lives in src/core/ but is its own layering
      // entry: it sits ABOVE the pipeline (it serializes one), so it
      // gets a stricter allowed-set than core at large and stages can
      // be banned from including it.
      if (parts[i + 1] == "core" && i + 2 < parts.size() &&
          parts[i + 2].starts_with("checkpoint.")) {
        return "checkpoint";
      }
      // The cluster coordinator also lives in src/core/ but sits ABOVE
      // the pipeline (it orchestrates many of them across hosts), so it
      // is its own layering entry with its own isolation rule below.
      if (parts[i + 1] == "core" && i + 2 < parts.size() &&
          parts[i + 2] == "cluster") {
        return "cluster";
      }
      return parts[i + 1];
    }
  }
  return "";
}

std::string include_module(const std::string& header) {
  if (header == "core/checkpoint.hpp") return "checkpoint";
  if (header.starts_with("core/cluster/")) return "cluster";
  std::size_t slash = header.find('/');
  if (slash == std::string::npos) return "";
  return header.substr(0, slash);
}

/// The declared layering table (DESIGN.md §16). A module may include
/// itself and the listed modules, nothing else. util is the foundation:
/// it depends on nothing.
const std::map<std::string, std::set<std::string>>& layering() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"util", {}},
      {"linalg", {"util"}},
      {"stats", {"util", "linalg"}},
      {"mds", {"util", "linalg"}},
      {"trace", {"util"}},
      {"sim", {"util"}},
      {"obs", {"util"}},
      {"apps", {"util", "stats", "trace", "sim"}},
      {"monitor", {"util", "linalg", "stats", "trace", "sim"}},
      {"core",
       {"util", "linalg", "stats", "mds", "trace", "sim", "monitor", "obs",
        "checkpoint"}},
      {"checkpoint", {"util", "core"}},
      // The coordinator scores and migrates across HostPipelines: core
      // (pipeline seam, stages, statespace) and the checkpoint codec —
      // but never sim (see the cluster-isolation rule).
      {"cluster", {"util", "core", "checkpoint"}},
      {"baseline", {"util", "sim", "core"}},
      {"replay", {"util", "core", "harness"}},
      {"harness",
       {"util", "linalg", "stats", "mds", "trace", "sim", "monitor", "obs",
        "core", "baseline", "apps", "checkpoint", "cluster"}},
  };
  return kAllowed;
}

/// One parallelism axis (DESIGN.md §9): the fleet's worker team is the
/// library's only source of threads. Under src/ only the team's own
/// implementation may start threads, and only the fleet runner
/// (src/harness/fleet.cpp, plus the team itself) may include the team.
bool in_dir_with_prefix(const std::string& path, std::string_view dir,
                        std::string_view prefix) {
  const std::size_t slash = path.rfind('/');
  return path.substr(0, slash + 1).ends_with(dir) &&
         path.substr(slash + 1).starts_with(prefix);
}

bool may_own_threads(const std::string& path) {
  return in_dir_with_prefix(path, "src/util/", "thread_pool.");
}

bool may_include_thread_pool(const std::string& path) {
  return in_dir_with_prefix(path, "src/harness/", "fleet.cpp") ||
         may_own_threads(path);
}

void include_graph_pass(const SourceFile& f, std::vector<Finding>& out) {
  const std::string mod = module_of(f.path);
  const bool in_stages = path_has_dir(f.path, "stages/");
  const bool in_cluster = mod == "cluster";
  const bool threads_banned = !mod.empty() && !may_own_threads(f.path);
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    const bool std_thread =
        t.kind == Tok::Ident && (t.text == "thread" || t.text == "jthread") &&
        i >= 2 && f.tokens[i - 1].text == "::" && f.tokens[i - 2].text == "std";
    if (threads_banned &&
        ((t.kind == Tok::HeaderName && t.text == "<thread>") || std_thread)) {
      out.push_back({f.path, t.line, "include-graph", "parallelism-axis",
                     "only src/util/thread_pool.* may use " +
                         (std_thread ? "std::" + t.text : t.text) +
                         "; fleet workers are the only parallelism axis"});
      continue;
    }
    if (t.kind == Tok::HeaderName && !t.text.starts_with("<")) {
      const std::string dep = include_module(t.text);
      // Stage isolation: stages/ may take sim's ID vocabulary
      // (sim/vm.hpp) but nothing that reaches the simulated host.
      // Checkpoint isolation: a stage describes its state through the
      // util::StateIO its persist() hook is handed (util/statecodec.hpp
      // is fine); the envelope, checksum and restore I/O belong to the
      // supervisor layer, never to a stage.
      if (in_stages && dep == "checkpoint") {
        out.push_back({f.path, t.line, "include-graph",
                       "checkpoint-isolation",
                       "pipeline stages must not include " + t.text +
                           "; stages describe their state through the "
                           "StateIO handed to persist(), checkpoint envelope "
                           "I/O stays in the supervisor layer"});
        continue;
      }
      if (in_stages && dep == "sim" && t.text != "sim/vm.hpp") {
        out.push_back({f.path, t.line, "include-graph", "stage-isolation",
                       "pipeline stages may only include sim/vm.hpp from "
                       "sim (ID vocabulary); host access goes through the "
                       "ActuationPort seam, not " +
                           t.text});
        continue;
      }
      // Cluster isolation: the coordinator observes hosts through the
      // read-only HostPipeline seam (core/pipeline.hpp) and actuates
      // through stage commands; it must never reach into sim/ directly,
      // not even for the ID vocabulary (IDs arrive via
      // core/stages/stage.hpp).
      if (in_cluster && dep == "sim") {
        out.push_back({f.path, t.line, "include-graph", "cluster-isolation",
                       "the cluster coordinator must not include " + t.text +
                           "; it reads host state through the "
                           "core/pipeline.hpp seam and actuates through "
                           "stage commands, never sim/ directly"});
        continue;
      }
      if (!mod.empty() && t.text == "util/thread_pool.hpp" &&
          !may_include_thread_pool(f.path)) {
        out.push_back({f.path, t.line, "include-graph", "parallelism-axis",
                       "only src/harness/fleet.cpp may include " + t.text +
                           "; fleet workers are the only parallelism axis, "
                           "kernels stay sequential"});
        continue;
      }
      if (!mod.empty() && layering().count(dep) != 0 && dep != mod) {
        const std::set<std::string>& allowed = layering().at(mod);
        if (allowed.count(dep) == 0) {
          std::string deps;
          for (const std::string& a : allowed) {
            deps += deps.empty() ? a : ", " + a;
          }
          out.push_back(
              {f.path, t.line, "include-graph", "layering",
               "module '" + mod + "' may not include '" + t.text +
                   "' (declared layering: " + mod + " -> {" +
                   (deps.empty() ? "nothing" : deps) + "})"});
        }
      }
    }
    // Stage isolation also bans *naming* the simulated host type.
    if (in_stages && t.kind == Tok::Ident && t.text == "SimHost") {
      out.push_back({f.path, t.line, "include-graph", "stage-isolation",
                     "pipeline stages must not touch sim::SimHost "
                     "directly; go through the ActuationPort seam"});
    }
    if (in_cluster && t.kind == Tok::Ident && t.text == "SimHost") {
      out.push_back({f.path, t.line, "include-graph", "cluster-isolation",
                     "the cluster coordinator must not touch sim::SimHost "
                     "directly; go through the HostPipeline seam"});
    }
  }
}

// ---------------------------------------------------------------------------
// Pass: lock discipline

bool mutex_type_token(const std::string& s) {
  return s == "Mutex" || s == "mutex" || s == "shared_mutex" ||
         s == "recursive_mutex" || s == "timed_mutex";
}

bool condvar_type_token(const std::string& s) {
  return s == "CondVar" || s == "condition_variable" ||
         s == "condition_variable_any";
}

struct MemberDecl {
  std::string name;
  std::size_t name_line = 0;
  std::size_t first_line = 0;
  bool guarded = false;      // carries SA_GUARDED_BY / SA_PT_GUARDED_BY
  bool is_mutex = false;     // the capability itself
  bool is_condvar = false;
  bool is_atomic = false;
};

struct ClassScope {
  std::string name;
  bool owns_mutex = false;
  std::vector<MemberDecl> members;
};

/// Extracts the declared field (if any) from the accumulated member
/// declaration tokens. `kBraceInit` marks a skipped {...} initializer.
const std::string kBraceInit = "\x01{}";

void process_member_decl(const std::vector<Token>& decl, ClassScope& cls) {
  if (decl.empty()) return;
  static const std::set<std::string> kSkipLead = {
      "using",  "friend",    "typedef", "static",  "template",
      "enum",   "namespace", "public",  "private", "protected"};
  if (decl.front().kind == Tok::Ident && kSkipLead.count(decl.front().text)) {
    return;
  }
  for (const Token& t : decl) {
    if (t.kind == Tok::Ident && t.text == "operator") return;
  }
  // The field name: the first identifier followed by the end of the
  // declaration, '=', '[', a brace initializer, or a guard annotation.
  auto terminator = [&](std::size_t j) {
    if (j + 1 >= decl.size()) return true;
    const Token& nxt = decl[j + 1];
    if (nxt.kind == Tok::Punct && (nxt.text == "=" || nxt.text == "[")) {
      return true;
    }
    if (nxt.kind == Tok::Ident &&
        (nxt.text == "SA_GUARDED_BY" || nxt.text == "SA_PT_GUARDED_BY" ||
         nxt.text == kBraceInit)) {
      return true;
    }
    return false;
  };
  MemberDecl m;
  for (std::size_t j = 0; j < decl.size(); ++j) {
    if (decl[j].kind == Tok::Ident && decl[j].text != kBraceInit &&
        terminator(j)) {
      m.name = decl[j].text;
      m.name_line = decl[j].line;
      break;
    }
  }
  // The repo's member naming convention (pinned by .clang-tidy): fields
  // end in '_'. Anything else here is a method modifier or a constant.
  if (m.name.size() < 2 || m.name.back() != '_') return;
  m.first_line = decl.front().line;
  for (const Token& t : decl) {
    if (t.kind != Tok::Ident) continue;
    if (mutex_type_token(t.text)) m.is_mutex = true;
    if (condvar_type_token(t.text)) m.is_condvar = true;
    if (t.text == "atomic") m.is_atomic = true;
    if (t.text == "SA_GUARDED_BY" || t.text == "SA_PT_GUARDED_BY") {
      m.guarded = true;
    }
  }
  if (m.is_mutex) cls.owns_mutex = true;
  cls.members.push_back(std::move(m));
}

void finalize_class(const ClassScope& cls, const SourceFile& f,
                    std::vector<std::size_t>& free_waivers,
                    std::vector<Finding>& out) {
  if (!cls.owns_mutex) return;
  for (const MemberDecl& m : cls.members) {
    if (m.guarded || m.is_mutex || m.is_condvar || m.is_atomic) continue;
    if (consume_waiver(free_waivers, m.first_line, m.name_line)) continue;
    out.push_back(
        {f.path, m.name_line, "lock-discipline", "unguarded-field",
         "field '" + m.name + "' of mutex-owning class '" +
             (cls.name.empty() ? "(anonymous)" : cls.name) +
             "' needs SA_GUARDED_BY/SA_PT_GUARDED_BY or a "
             "`// sa-lint: unguarded(<reason>)` waiver"});
  }
}

void lock_discipline_pass(const SourceFile& f, std::vector<Finding>& out) {
  const std::vector<Token>& toks = f.tokens;
  const std::size_t n = toks.size();
  std::vector<std::size_t> waivers = f.waiver_lines;

  auto next_sig = [&](std::size_t j) {
    while (j < n && toks[j].kind == Tok::Comment) ++j;
    return j;
  };
  auto skip_braces = [&](std::size_t open) {
    // `open` indexes a '{'; returns the index of the matching '}'.
    std::size_t depth = 0;
    for (std::size_t j = open; j < n; ++j) {
      if (toks[j].kind != Tok::Punct) continue;
      if (toks[j].text == "{") ++depth;
      if (toks[j].text == "}" && --depth == 0) return j;
    }
    return n - 1;
  };

  struct Scope {
    bool is_class = false;
    ClassScope cls;
  };
  std::vector<Scope> scopes;
  std::vector<Token> decl;
  std::string prev_ident;

  std::size_t i = 0;
  while (i < n) {
    const Token& t = toks[i];
    if (t.kind == Tok::Comment) {
      ++i;
      continue;
    }
    const bool in_class = !scopes.empty() && scopes.back().is_class;

    if (t.kind == Tok::Ident && (t.text == "class" || t.text == "struct") &&
        prev_ident != "enum") {
      // Lookahead: a definition has '{' before any of ';' '=' ')' ','.
      std::size_t j = next_sig(i + 1);
      std::string name;
      std::size_t brace = 0;
      while (j < n) {
        const Token& lt = toks[j];
        if (lt.kind == Tok::Punct &&
            (lt.text == ";" || lt.text == "=" || lt.text == ")" ||
             lt.text == ",")) {
          break;  // forward declaration / template param / friend
        }
        if (lt.kind == Tok::Punct && lt.text == "{") {
          brace = j;
          break;
        }
        if (lt.kind == Tok::Punct && lt.text == "(") {
          break;  // e.g. a parameter list — not a class definition
        }
        if (lt.kind == Tok::Ident && name.empty() && lt.text != "final" &&
            lt.text != "alignas") {
          // A macro attribute like SA_CAPABILITY("mutex") parenthesizes;
          // skip its group and keep looking for the class name.
          std::size_t after = next_sig(j + 1);
          if (after < n && toks[after].kind == Tok::Punct &&
              toks[after].text == "(") {
            std::size_t depth = 0;
            std::size_t k = after;
            for (; k < n; ++k) {
              if (toks[k].kind != Tok::Punct) continue;
              if (toks[k].text == "(") ++depth;
              if (toks[k].text == ")" && --depth == 0) break;
            }
            j = k + 1;
            continue;
          }
          name = lt.text;
        }
        j = next_sig(j + 1);
      }
      if (brace != 0) {
        decl.clear();
        Scope s;
        s.is_class = true;
        s.cls.name = name;
        scopes.push_back(std::move(s));
        prev_ident.clear();
        i = brace + 1;
        continue;
      }
      if (in_class) decl.push_back(t);
      prev_ident = t.text;
      ++i;
      continue;
    }

    if (t.kind == Tok::Punct && t.text == "{") {
      if (in_class) {
        // Member-level brace: either an initializer (`x_{0};`) or a
        // function body. Skip it whole; if a ';' follows it was an
        // initializer — keep the declaration alive with a marker.
        std::size_t close = skip_braces(i);
        std::size_t after = next_sig(close + 1);
        if (after < n && toks[after].kind == Tok::Punct &&
            toks[after].text == ";") {
          decl.push_back({Tok::Ident, kBraceInit, t.line});
        } else {
          decl.clear();  // function definition
        }
        i = close + 1;
      } else {
        scopes.push_back({});  // namespace / function / enum block
        ++i;
      }
      prev_ident.clear();
      continue;
    }
    if (t.kind == Tok::Punct && t.text == "}") {
      if (!scopes.empty()) {
        if (scopes.back().is_class) {
          process_member_decl(decl, scopes.back().cls);
          finalize_class(scopes.back().cls, f, waivers, out);
          decl.clear();
        }
        scopes.pop_back();
      }
      prev_ident.clear();
      ++i;
      continue;
    }
    if (in_class && t.kind == Tok::Punct && t.text == ";") {
      process_member_decl(decl, scopes.back().cls);
      decl.clear();
      prev_ident.clear();
      ++i;
      continue;
    }
    if (in_class && t.kind == Tok::Punct && t.text == ":" &&
        decl.size() == 1 && decl.front().kind == Tok::Ident &&
        (decl.front().text == "public" || decl.front().text == "private" ||
         decl.front().text == "protected")) {
      decl.clear();
      prev_ident.clear();
      ++i;
      continue;
    }
    if (in_class) decl.push_back(t);
    prev_ident = (t.kind == Tok::Ident) ? t.text : "";
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Pass: determinism taint

/// The standard library's raw engines. An engine outside util::Rng draws
/// uncounted, so a `<seed> <draws>` snapshot could not restore it.
bool raw_engine(const std::string& name) {
  static const std::set<std::string> kEngines = {
      "mt19937",  "mt19937_64",    "minstd_rand",   "minstd_rand0",
      "ranlux24", "ranlux24_base", "ranlux48",      "ranlux48_base",
      "knuth_b",  "default_random_engine"};
  return kEngines.contains(name);
}

void determinism_pass(const SourceFile& f, std::vector<Finding>& out) {
  if (!library_code(f.path)) return;
  const bool domain = deterministic_domain(f.path);
  const bool rng_itself = path_has_dir(f.path, "src/util/rng.");
  const std::vector<Token>& toks = f.tokens;
  auto sig_before = [&](std::size_t j) -> const Token* {
    while (j > 0) {
      --j;
      if (toks[j].kind != Tok::Comment) return &toks[j];
    }
    return nullptr;
  };
  auto sig_after = [&](std::size_t j) -> const Token* {
    for (std::size_t k = j + 1; k < toks.size(); ++k) {
      if (toks[k].kind != Tok::Comment) return &toks[k];
    }
    return nullptr;
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::Ident) continue;
    if (!rng_itself && raw_engine(t.text)) {
      out.push_back({f.path, t.line, "determinism", "raw-engine",
                     "std::" + t.text + " draws outside util::Rng, "
                     "uncounted, so a checkpoint cannot restore it; draw "
                     "from an explicitly seeded util/rng Rng"});
      continue;
    }
    if (!domain) continue;
    if (t.text == "rand" || t.text == "srand") {
      const Token* nxt = sig_after(i);
      const Token* prv = sig_before(i);
      const bool member_call =
          prv != nullptr && prv->kind == Tok::Punct &&
          (prv->text == "." || prv->text == "->");
      if (!member_call && nxt != nullptr && nxt->kind == Tok::Punct &&
          nxt->text == "(") {
        out.push_back({f.path, t.line, "determinism", "deterministic-random",
                       t.text + "() is banned in deterministic code; draw "
                                "from an explicitly seeded util/rng Rng"});
      }
      continue;
    }
    static const std::map<std::string, std::string> kBanned = {
        {"random_device", "std::random_device is unseeded"},
        {"system_clock", "std::chrono::system_clock is wall-clock input"},
        {"steady_clock", "std::chrono::steady_clock timing is "
                         "schedule-dependent"},
        {"high_resolution_clock",
         "std::chrono::high_resolution_clock timing is schedule-dependent"},
        {"getenv", "environment reads are nondeterministic input"},
    };
    auto it = kBanned.find(t.text);
    if (it != kBanned.end()) {
      out.push_back({f.path, t.line, "determinism", "deterministic-random",
                     it->second + "; deterministic code must take every "
                                  "input from seeds or config"});
    }
  }
}

// ---------------------------------------------------------------------------
// Pass: style

void style_pass(const SourceFile& f, std::vector<Finding>& out) {
  const std::vector<Token>& toks = f.tokens;
  const bool header = is_header(f.path);
  const bool in_src = library_code(f.path);
  const bool tool_or_src = in_src || path_has_dir(f.path, "tools/");

  if (header) {
    bool pragma_once = false;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind == Tok::Directive && toks[i].text == "pragma" &&
          toks[i + 1].kind == Tok::Ident && toks[i + 1].text == "once") {
        pragma_once = true;
        break;
      }
    }
    if (!pragma_once) {
      out.push_back({f.path, 1, "style", "pragma-once",
                     "header is missing `#pragma once`"});
    }
  }

  auto sig_after = [&](std::size_t j) -> const Token* {
    for (std::size_t k = j + 1; k < toks.size(); ++k) {
      if (toks[k].kind != Tok::Comment) return &toks[k];
    }
    return nullptr;
  };
  auto sig_before = [&](std::size_t j) -> const Token* {
    while (j > 0) {
      --j;
      if (toks[j].kind != Tok::Comment) return &toks[j];
    }
    return nullptr;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::Ident) continue;
    const Token* nxt = sig_after(i);
    const Token* prv = sig_before(i);

    if (header && t.text == "using" && nxt != nullptr &&
        nxt->kind == Tok::Ident && nxt->text == "namespace") {
      out.push_back({f.path, t.line, "style", "using-namespace-header",
                     "`using namespace` in a header leaks into every "
                     "includer"});
    }
    if (tool_or_src && t.text == "new" && nxt != nullptr &&
        (nxt->kind == Tok::Ident ||
         (nxt->kind == Tok::Punct && nxt->text == "("))) {
      out.push_back({f.path, t.line, "style", "naked-new-delete",
                     "naked `new` is banned; use std::make_unique, a "
                     "container, or a value"});
    }
    if (tool_or_src && t.text == "delete" &&
        !(prv != nullptr && prv->kind == Tok::Punct && prv->text == "=")) {
      out.push_back({f.path, t.line, "style", "naked-new-delete",
                     "naked `delete` is banned; let an owner release the "
                     "memory"});
    }
    if (in_src && (t.text == "cout" || t.text == "cerr" || t.text == "clog") &&
        prv != nullptr && prv->kind == Tok::Punct && prv->text == "::" &&
        i >= 2) {
      const Token* scope = nullptr;
      for (std::size_t k = i - 1; k > 0;) {
        --k;
        if (toks[k].kind != Tok::Comment) {
          scope = &toks[k];
          break;
        }
      }
      if (scope != nullptr && scope->kind == Tok::Ident &&
          scope->text == "std") {
        out.push_back({f.path, t.line, "style", "no-raw-io",
                       "std::" + t.text + " is banned in library code; "
                       "emit through the obs event sinks"});
      }
    }
    // Ingestion seam: HostSampler::sample() may only be called by the
    // synchronous SampleSource. Receivers named exactly sampler/sampler_
    // are matched; stats samplers (step_sampler.sample(rng)) stay legal.
    if (in_src && !path_has_dir(f.path, "monitor/sample_source") &&
        (t.text == "sampler" || t.text == "sampler_") && nxt != nullptr &&
        nxt->kind == Tok::Punct && (nxt->text == "." || nxt->text == "->")) {
      const Token* call = nullptr;
      const Token* paren = nullptr;
      std::size_t k = i + 1;
      while (k < toks.size() && toks[k].kind == Tok::Comment) ++k;  // at nxt
      for (++k; k < toks.size(); ++k) {
        if (toks[k].kind == Tok::Comment) continue;
        if (call == nullptr) {
          call = &toks[k];
        } else {
          paren = &toks[k];
          break;
        }
      }
      if (call != nullptr && call->kind == Tok::Ident &&
          call->text == "sample" && paren != nullptr &&
          paren->kind == Tok::Punct && paren->text == "(") {
        out.push_back({f.path, t.line, "style", "direct-sample-call",
                       "direct HostSampler::sample() calls are banned "
                       "outside the synchronous SampleSource; drain a "
                       "monitor::SampleSource instead"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass: test-only API (whole tree)

/// A declaration or definition of a function: `name(` at namespace or
/// class scope, outside any parenthesis and before any `=` of its
/// declaration, after a type, `::`, `*`, `&`, `>` or `~`.
struct DeclSite {
  std::size_t token = 0;       // index of the name in SourceFile::tokens
  std::size_t first_line = 0;  // line of the declaration's first token
  bool visible = false;  // named namespaces and public sections all the way
  bool member = false;   // declared in a class body
};

/// Keywords written like a call, which a declaration may contain.
bool call_like_keyword(const std::string& s) {
  static const std::set<std::string> kWords = {
      "alignas", "decltype", "explicit", "noexcept",
      "operator", "requires", "sizeof", "static_assert"};
  return kWords.contains(s);
}

std::vector<DeclSite> declaration_sites(const SourceFile& f) {
  struct Scope {
    enum Kind { kNamespace, kClass, kBody } kind;
    bool reachable = false;  // the scope itself can be named from outside
    bool public_section = true;
    std::string name;  // classes: constructors are not API names
  };
  const std::vector<Token>& toks = f.tokens;
  std::vector<Scope> scopes;
  std::vector<const Token*> stmt;  // the current declaration so far
  std::vector<DeclSite> out;
  std::size_t parens = 0;
  std::size_t directive_line = 0;
  auto visible = [&] {
    return scopes.empty() ||
           (scopes.back().reachable && scopes.back().public_section);
  };
  auto next_sig = [&](std::size_t j) -> const Token* {
    for (++j; j < toks.size(); ++j) {
      if (toks[j].kind != Tok::Comment) return &toks[j];
    }
    return nullptr;
  };
  auto is = [](const Token* t, std::string_view text) {
    return t != nullptr && t->text == text &&
           (t->kind == Tok::Punct || t->kind == Tok::Ident);
  };
  // Classifies the `{` ending `stmt`: a namespace, a class body, or a
  // body (function, lambda, enum, initializer) whose names are all uses.
  auto open_scope = [&]() -> Scope {
    std::size_t k = 0;
    if (k < stmt.size() && is(stmt[k], "template")) {
      int depth = 0;
      for (++k; k < stmt.size(); ++k) {
        if (is(stmt[k], "<")) ++depth;
        if (is(stmt[k], ">") && --depth == 0) {
          ++k;
          break;
        }
      }
    }
    while (k < stmt.size() &&
           (is(stmt[k], "inline") || is(stmt[k], "export"))) {
      ++k;
    }
    if (k == stmt.size()) return {Scope::kBody, false, false, ""};
    if (is(stmt[k], "namespace") || is(stmt[k], "extern")) {
      // An anonymous namespace hides its contents.
      return {Scope::kNamespace, visible() && k + 1 < stmt.size(), true, ""};
    }
    if (is(stmt[k], "class") || is(stmt[k], "struct") ||
        is(stmt[k], "union")) {
      std::string name;
      for (std::size_t j = k + 1; j < stmt.size(); ++j) {
        if (is(stmt[j], ":")) break;
        if (stmt[j]->kind == Tok::Ident && stmt[j]->text != "final") {
          name = stmt[j]->text;
        }
      }
      return {Scope::kClass, visible(), !is(stmt[k], "class"), name};
    }
    return {Scope::kBody, false, false, ""};
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Tok::Comment) continue;
    // Preprocessor lines (continued with a trailing backslash) never
    // declare API; names in a macro body stay uses.
    if (t.kind == Tok::Directive) directive_line = t.line;
    if (t.line == directive_line) {
      if (is(&t, "\\")) ++directive_line;
      continue;
    }
    const bool in_body =
        !scopes.empty() && scopes.back().kind == Scope::kBody;
    if (is(&t, "{")) {
      // A brace inside a parameter list is a default argument's value.
      scopes.push_back(in_body || parens > 0
                           ? Scope{Scope::kBody, false, false, ""}
                           : open_scope());
      if (parens == 0) stmt.clear();
      continue;
    }
    if (is(&t, "}")) {
      if (!scopes.empty()) scopes.pop_back();
      if (parens == 0) stmt.clear();
      continue;
    }
    if (in_body) continue;
    if (is(&t, ";")) {
      stmt.clear();
      parens = 0;
      continue;
    }
    if (!scopes.empty() && scopes.back().kind == Scope::kClass &&
        (is(&t, "public") || is(&t, "private") || is(&t, "protected")) &&
        is(next_sig(i), ":")) {
      scopes.back().public_section = t.text == "public";
      stmt.clear();
      ++i;
      continue;
    }
    if (is(&t, "(")) ++parens;
    if (is(&t, ")") && parens > 0) --parens;
    if (t.kind == Tok::Ident && parens == 0 && is(next_sig(i), "(") &&
        !stmt.empty()) {
      const Token* prev = stmt.back();
      bool assigned = false;
      for (const Token* s : stmt) assigned = assigned || is(s, "=");
      if (!assigned &&
          (prev->kind == Tok::Ident || is(prev, "::") || is(prev, "*") ||
           is(prev, "&") || is(prev, ">") || is(prev, "~"))) {
        // Destructors, operators and constructors are not API names.
        const bool api = visible() && !is(prev, "~") &&
                         !is(prev, "operator") && !call_like_keyword(t.text) &&
                         (scopes.empty() || t.text != scopes.back().name);
        out.push_back({i, stmt.front()->line, api,
                       !scopes.empty() && scopes.back().kind == Scope::kClass});
      }
    }
    stmt.push_back(&t);
  }
  return out;
}

/// tests/ exercises the library; it does not use it.
bool test_code(const std::string& path) {
  return path_has_dir(path, "tests/");
}

/// A public function or method declared in a src/ header must have a use
/// outside tests/: a mention in src/, tools/, bench/, examples/ or
/// perfbench/ other than a declaration or definition, its own header and
/// .cpp included. Matching is by name, so any use of a name keeps every
/// overload of it. One-line accessors that exist so tests can observe
/// state carry a `// sa-lint: test-observer(<reason>)` waiver instead.
void test_only_api_pass(const std::vector<SourceFile>& files,
                        std::vector<Finding>& out) {
  // A member function is used by a call or a `Class::name` reference; a
  // bare mention of its name is usually a field, parameter or local.
  std::set<std::string> used;
  std::set<std::string> called;
  std::vector<std::vector<DeclSite>> sites;
  for (const SourceFile& f : files) {
    sites.push_back(declaration_sites(f));
    if (test_code(f.path)) continue;
    std::vector<bool> declared(f.tokens.size(), false);
    for (const DeclSite& d : sites.back()) declared[d.token] = true;
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
      const Token& t = f.tokens[i];
      if (t.kind != Tok::Ident || declared[i]) continue;
      used.insert(t.text);
      std::size_t next = i + 1;
      while (next < f.tokens.size() && f.tokens[next].kind == Tok::Comment) {
        ++next;
      }
      if ((next < f.tokens.size() && f.tokens[next].text == "(") ||
          (i > 0 && f.tokens[i - 1].text == "::")) {
        called.insert(t.text);
      }
    }
  }
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& f = files[fi];
    if (!library_code(f.path) || !is_header(f.path)) continue;
    std::vector<std::size_t> observers = f.observer_lines;
    for (const DeclSite& d : sites[fi]) {
      const Token& name = f.tokens[d.token];
      // A name with no lowercase letter is a macro or attribute, not API.
      if (!d.visible || (d.member ? called : used).contains(name.text) ||
          std::none_of(name.text.begin(), name.text.end(), [](char c) {
            return std::islower(static_cast<unsigned char>(c)) != 0;
          })) {
        continue;
      }
      if (consume_waiver(observers, d.first_line, name.line)) continue;
      out.push_back({f.path, name.line, "test-only-api", "test-only-api",
                     "public '" + name.text + "' has no use outside tests/; "
                     "delete it, or keep it with a "
                     "`// sa-lint: test-observer(<reason>)` waiver"});
    }
  }
}

// ---------------------------------------------------------------------------
// Driver

void per_file_passes(const SourceFile& f, std::vector<Finding>& out) {
  include_graph_pass(f, out);
  lock_discipline_pass(f, out);
  determinism_pass(f, out);
  style_pass(f, out);
}

std::vector<Finding> analyze_content(const std::string& path,
                                     const std::string& content) {
  std::vector<Finding> out;
  per_file_passes(make_source(path, content), out);
  std::sort(out.begin(), out.end(), finding_order);
  return out;
}

/// Every pass over a set of (path, content) files: the per-file passes
/// on each, then the test-only-api pass, which needs all of them at once.
std::vector<Finding> analyze_files(
    const std::vector<std::pair<std::string, std::string>>& contents) {
  std::vector<SourceFile> files;
  std::vector<Finding> out;
  for (const auto& [path, content] : contents) {
    files.push_back(make_source(path, content));
    per_file_passes(files.back(), out);
  }
  test_only_api_pass(files, out);
  std::sort(out.begin(), out.end(), finding_order);
  return out;
}

std::vector<Finding> analyze_tree(const std::vector<std::string>& roots) {
  std::vector<std::pair<std::string, std::string>> contents;
  for (const std::string& root : roots) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      std::ifstream in(file);
      std::ostringstream buf;
      buf << in.rdbuf();
      contents.emplace_back(file.generic_string(), buf.str());
    }
  }
  return analyze_files(contents);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string findings_to_json(const std::vector<Finding>& all) {
  std::ostringstream out;
  out << "{\"findings\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Finding& v = all[i];
    if (i > 0) out << ",";
    out << "{\"file\":\"" << json_escape(v.file) << "\",\"line\":" << v.line
        << ",\"pass\":\"" << json_escape(v.pass) << "\",\"rule\":\""
        << json_escape(v.rule) << "\",\"message\":\""
        << json_escape(v.message) << "\"}";
  }
  out << "],\"count\":" << all.size() << "}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Self-test: fixtures prove every pass fires on a seeded violation and
// stays quiet on the near-miss that used to fool (or would fool) a
// line-regex scanner.

struct Fixture {
  std::string name;
  std::string path;  // virtual path: domain and module rules key off it
  std::string content;
  std::vector<std::string> expect;  // rule ids, sorted by (line, rule)
};

std::vector<Fixture> self_test_fixtures() {
  std::vector<Fixture> f;
  // --- tokenizer: constructs that defeat line-regex scanning -------------
  f.push_back({"raw-string-rand", "src/core/tok1.cpp",
               "const char* s = R\"(rand() inside a raw string)\";\n",
               {}});
  f.push_back({"raw-string-include", "src/core/stages/tok2.cpp",
               "const char* s = R\"(#include \"sim/host.hpp\")\";\n",
               {}});
  f.push_back({"multiline-comment-rand", "src/core/tok3.cpp",
               "/* legacy path:\n   int v = rand();\n*/\nint x = 0;\n",
               {}});
  f.push_back({"commented-out-rand", "src/core/tok4.cpp",
               "// legacy: rand() seeded the jitter here\nint x = 0;\n",
               {}});
  f.push_back({"escaped-quote-string", "src/core/tok5.cpp",
               "const char* s = \"escaped \\\" then rand() stays text\";\n",
               {}});
  f.push_back({"string-embedded-include", "src/apps/tok6.cpp",
               "const char* s = \"#include \\\"core/config.hpp\\\"\";\n",
               {}});
  f.push_back({"digit-separator-then-rand", "src/core/tok7.cpp",
               "long n = 1'000'000;\nint y = rand();\n",
               {"deterministic-random"}});
  // --- determinism -------------------------------------------------------
  f.push_back({"rand-in-core", "src/core/det1.cpp",
               "int draw() { return rand(); }\n",
               {"deterministic-random"}});
  f.push_back({"random-device-in-stats", "src/stats/det2.cpp",
               "std::random_device rd;\n",
               {"deterministic-random"}});
  f.push_back({"system-clock-in-sim", "src/sim/det3.cpp",
               "auto now = std::chrono::system_clock::now();\n",
               {"deterministic-random"}});
  f.push_back({"steady-clock-in-replay", "src/replay/det4.cpp",
               "auto t0 = std::chrono::steady_clock::now();\n",
               {"deterministic-random"}});
  f.push_back({"getenv-in-mds", "src/mds/det5.cpp",
               "const char* v = std::getenv(\"HOME\");\n",
               {"deterministic-random"}});
  f.push_back({"rand-outside-domain", "src/apps/det6.cpp",
               "int draw() { return rand(); }\n",
               {}});
  f.push_back({"seeded-rng-ok", "src/replay/det7.cpp",
               "util::Rng rng(config.seed);\n",
               {}});
  f.push_back({"operand-not-rand", "src/core/det8.cpp",
               "int operand(int a) { return a; }\n",
               {}});
  f.push_back({"member-rand-ok", "src/core/det9.cpp",
               "double d = dist.rand();\n",
               {}});
  f.push_back({"raw-engine-in-apps", "src/apps/det10.cpp",
               "std::mt19937_64 gen(seed);\n",
               {"raw-engine"}});
  f.push_back({"raw-engines-in-core", "src/core/det11.cpp",
               "std::minstd_rand a(1);\nstd::ranlux48_base b(2);\n"
               "std::default_random_engine c;\n",
               {"raw-engine", "raw-engine", "raw-engine"}});
  f.push_back({"raw-engine-in-rng-ok", "src/util/rng.cpp",
               "std::mt19937_64 engine(seed);\n",
               {}});
  f.push_back({"raw-engine-in-comment-ok", "src/util/det12.cpp",
               "// equals std::mt19937_64's stream\nint x = 0;\n",
               {}});
  f.push_back({"raw-engine-in-tests-ok", "tests/det13.cpp",
               "std::mt19937_64 engine(21);\n",
               {}});
  // --- include graph / layering ------------------------------------------
  f.push_back({"apps-include-core", "src/apps/inc1.cpp",
               "#include \"core/config.hpp\"\n",
               {"layering"}});
  f.push_back({"util-includes-nothing", "src/util/inc2.cpp",
               "#include \"stats/online.hpp\"\n",
               {"layering"}});
  f.push_back({"core-include-harness", "src/core/inc3.cpp",
               "#include \"harness/rig.hpp\"\n",
               {"layering"}});
  f.push_back({"replay-include-harness-ok", "src/replay/inc4.cpp",
               "#include \"harness/fleet.hpp\"\n",
               {}});
  f.push_back({"stage-include-sim-host", "src/core/stages/inc5.cpp",
               "#include \"sim/host.hpp\"\n",
               {"stage-isolation"}});
  f.push_back({"stage-include-sim-vm-ok", "src/baseline/stages/inc6.cpp",
               "#include \"sim/vm.hpp\"\n",
               {}});
  f.push_back({"system-include-ignored", "src/core/inc7.cpp",
               "#include <random>\nint x = 0;\n",
               {}});
  f.push_back({"simhost-in-stage", "src/core/stages/inc8.cpp",
               "void f(sim::SimHost& host) { host.step(); }\n",
               {"stage-isolation"}});
  f.push_back({"simhost-outside-stages", "src/core/inc9.cpp",
               "void f(sim::SimHost& host);\n",
               {}});
  f.push_back({"port-type-in-stage-ok", "src/core/stages/inc10.cpp",
               "void f(core::SimHostActuationPort& port);\n",
               {}});
  f.push_back({"stage-include-checkpoint", "src/core/stages/inc11.cpp",
               "#include \"core/checkpoint.hpp\"\n",
               {"checkpoint-isolation"}});
  f.push_back({"statecodec-in-stage-ok", "src/core/stages/inc12.cpp",
               "#include \"util/statecodec.hpp\"\n",
               {}});
  f.push_back({"cluster-include-sim-host", "src/core/cluster/inc14.cpp",
               "#include \"sim/host.hpp\"\n",
               {"cluster-isolation"}});
  f.push_back({"cluster-include-sim-vm", "src/core/cluster/inc15.cpp",
               "#include \"sim/vm.hpp\"\n",
               {"cluster-isolation"}});
  f.push_back({"cluster-include-core-ok", "src/core/cluster/inc16.cpp",
               "#include \"core/pipeline.hpp\"\n"
               "#include \"core/checkpoint.hpp\"\n"
               "#include \"core/stages/stage.hpp\"\n",
               {}});
  f.push_back({"cluster-include-harness", "src/core/cluster/inc17.cpp",
               "#include \"harness/fleet.hpp\"\n",
               {"layering"}});
  f.push_back({"simhost-in-cluster", "src/core/cluster/inc18.cpp",
               "void f(sim::SimHost& host);\n",
               {"cluster-isolation"}});
  f.push_back({"harness-include-cluster-ok", "src/harness/inc19.cpp",
               "#include \"core/cluster/coordinator.hpp\"\n",
               {}});
  f.push_back({"replay-include-cluster", "src/replay/inc20.cpp",
               "#include \"core/cluster/score.hpp\"\n",
               {"layering"}});
  f.push_back({"checkpoint-in-core-ok", "src/core/inc13.cpp",
               "#include \"core/checkpoint.hpp\"\n",
               {}});
  f.push_back({"checkpoint-include-harness", "src/core/checkpoint.cpp",
               "#include \"harness/fleet.hpp\"\n",
               {"layering"}});
  f.push_back({"checkpoint-include-core-ok", "src/core/checkpoint.hpp",
               "#pragma once\n#include \"core/pipeline.hpp\"\n",
               {}});
  f.push_back({"thread-pool-in-mds", "src/mds/inc21.cpp",
               "#include \"util/thread_pool.hpp\"\n",
               {"parallelism-axis"}});
  f.push_back({"thread-pool-in-fleet-ok", "src/harness/fleet.cpp",
               "#include \"util/thread_pool.hpp\"\n",
               {}});
  f.push_back({"thread-pool-in-fleet-header", "src/harness/fleet.hpp",
               "#pragma once\n#include \"util/thread_pool.hpp\"\n",
               {"parallelism-axis"}});
  f.push_back({"thread-pool-in-core", "src/core/fleet.cpp",
               "#include \"util/thread_pool.hpp\"\n",
               {"parallelism-axis"}});
  f.push_back({"std-thread-in-monitor", "src/monitor/inc22.cpp",
               "#include <thread>\nstd::thread producer_;\n",
               {"parallelism-axis", "parallelism-axis"}});
  f.push_back({"std-thread-in-pool-ok", "src/util/thread_pool.hpp",
               "#pragma once\n#include <thread>\n"
               "std::vector<std::thread> workers_;\n",
               {}});
  // --- lock discipline ---------------------------------------------------
  f.push_back({"unguarded-field", "src/obs/lock1.hpp",
               "#pragma once\nclass C {\n  util::Mutex mu_;\n"
               "  int count_ = 0;\n};\n",
               {"unguarded-field"}});
  f.push_back({"guarded-field-ok", "src/obs/lock2.hpp",
               "#pragma once\nclass C {\n  util::Mutex mu_;\n"
               "  int count_ SA_GUARDED_BY(mu_) = 0;\n};\n",
               {}});
  f.push_back({"pt-guarded-pointer-ok", "src/obs/lock3.hpp",
               "#pragma once\nclass C {\n  mutable util::Mutex mu_;\n"
               "  std::ostream* out_ SA_PT_GUARDED_BY(mu_);\n};\n",
               {}});
  f.push_back({"waivered-field-ok", "src/obs/lock4.hpp",
               "#pragma once\nclass C {\n  util::Mutex mu_;\n"
               "  // sa-lint: unguarded(written once before any thread "
               "starts)\n  int config_ = 0;\n};\n",
               {}});
  f.push_back({"empty-waiver-reason-rejected", "src/obs/lock5.hpp",
               "#pragma once\nclass C {\n  util::Mutex mu_;\n"
               "  int config_ = 0;  // sa-lint: unguarded()\n};\n",
               {"unguarded-field"}});
  f.push_back({"atomic-field-exempt", "src/obs/lock6.hpp",
               "#pragma once\nclass C {\n  std::mutex mu_;\n"
               "  std::atomic<bool> flag_{false};\n};\n",
               {}});
  f.push_back({"condvar-field-exempt", "src/util/lock7.hpp",
               "#pragma once\nclass C {\n  Mutex mu_;\n  CondVar cv_;\n"
               "  bool stop_ SA_GUARDED_BY(mu_) = false;\n};\n",
               {}});
  f.push_back({"no-mutex-no-binding", "src/core/lock8.hpp",
               "#pragma once\nclass C {\n  int count_ = 0;\n"
               "  std::vector<double> data_;\n};\n",
               {}});
  f.push_back({"static-member-exempt", "src/obs/lock9.hpp",
               "#pragma once\nclass C {\n  std::mutex mu_;\n"
               "  static constexpr std::size_t kCap = 4;\n"
               "  int n_ SA_GUARDED_BY(mu_) = 0;\n};\n",
               {}});
  f.push_back({"brace-init-unguarded", "src/obs/lock10.hpp",
               "#pragma once\nclass C {\n  util::Mutex mu_;\n"
               "  std::size_t n_{0};\n};\n",
               {"unguarded-field"}});
  f.push_back({"nested-class-not-bound", "src/obs/lock11.hpp",
               "#pragma once\nclass Outer {\n  struct Cell {\n"
               "    double sum_ = 0.0;\n  };\n  util::Mutex mu_;\n"
               "  std::deque<Cell> cells_ SA_GUARDED_BY(mu_);\n};\n",
               {}});
  f.push_back({"method-locals-not-fields", "src/obs/lock12.hpp",
               "#pragma once\nclass C {\n public:\n"
               "  int get() { int tmp_ = 0; return tmp_; }\n"
               " private:\n  util::Mutex mu_;\n"
               "  int v_ SA_GUARDED_BY(mu_) = 0;\n};\n",
               {}});
  f.push_back({"waiver-not-shared-across-fields", "src/obs/lock13.hpp",
               "#pragma once\nclass C {\n  util::Mutex mu_;\n"
               "  // sa-lint: unguarded(owner thread only)\n  int a_ = 0;\n"
               "  int b_ = 0;\n};\n",
               {"unguarded-field"}});
  // --- style -------------------------------------------------------------
  f.push_back({"cout-in-library", "src/mds/sty1.cpp",
               "void p() { std::cout << 1; }\n",
               {"no-raw-io"}});
  f.push_back({"cerr-in-string", "src/mds/sty2.cpp",
               "const char* s = \"std::cerr\";\n",
               {}});
  f.push_back({"cout-in-tool-ok", "tools/sty3.cpp",
               "void p() { std::cout << 1; }\n",
               {}});
  f.push_back({"missing-pragma-once", "src/util/sty4.hpp",
               "int f();\n",
               {"pragma-once"}});
  f.push_back({"using-namespace-in-header", "src/util/sty5.hpp",
               "#pragma once\nusing namespace std;\n",
               {"using-namespace-header"}});
  f.push_back({"using-namespace-in-cpp-ok", "src/util/sty6.cpp",
               "using namespace std;\n",
               {}});
  f.push_back({"naked-new-and-delete", "src/sim/sty7.cpp",
               "void f() { int* p = new int(3); delete p; }\n",
               {"naked-new-delete", "naked-new-delete"}});
  f.push_back({"deleted-special-member-ok", "src/sim/sty8.hpp",
               "#pragma once\nstruct S { S(const S&) = delete; };\n",
               {}});
  f.push_back({"make-unique-ok", "src/sim/sty9.cpp",
               "auto p = std::make_unique<int>(3);\n",
               {}});
  f.push_back({"new-in-comment-ok", "src/sim/sty10.cpp",
               "/* a new representative */ int x = 0;\n",
               {}});
  f.push_back({"direct-sample-call", "src/core/stages/sty11.cpp",
               "monitor::Measurement m = sampler_.sample();\n",
               {"direct-sample-call"}});
  f.push_back({"direct-sample-call-arrow", "src/harness/sty12.cpp",
               "auto m = sampler->sample();\n",
               {"direct-sample-call"}});
  f.push_back({"sample-in-sample-source-ok", "src/monitor/sample_source.cpp",
               "s.measurement = sampler_.sample();\n",
               {}});
  f.push_back({"stats-sampler-ok", "src/core/sty13.cpp",
               "double d = step_sampler.sample(rng);\n",
               {}});
  return f;
}

/// Whole-tree fixtures for the test-only-api pass: several files
/// analyzed together, as `analyze_tree` would.
struct TreeFixture {
  std::string name;
  std::vector<std::pair<std::string, std::string>> files;
  std::vector<std::string> expect;
};

std::vector<TreeFixture> tree_fixtures() {
  const std::string header =
      "#pragma once\nnamespace sa {\nclass Meter {\n public:\n"
      "  double reading() const;\n";
  const std::string source =
      "#include \"obs/meter.hpp\"\n"
      "double sa::Meter::reading() const { return 1.0; }\n";
  const std::pair<std::string, std::string> test = {
      "tests/test_meter.cpp", "TEST(Meter, Reads) { m.reading(); }\n"};
  std::vector<TreeFixture> f;
  f.push_back({"test-only-method",
               {{"src/obs/meter.hpp", header + "};\n}\n"},
                {"src/obs/meter.cpp", source},
                test},
               {"test-only-api"}});
  f.push_back({"method-used-by-bench-ok",
               {{"src/obs/meter.hpp", header + "};\n}\n"},
                {"src/obs/meter.cpp", source},
                test,
                {"bench/bench_meter.cpp",
                 "int main() { return m.reading() > 0; }\n"}},
               {}});
  f.push_back({"method-used-in-own-cpp-ok",
               {{"src/obs/meter.hpp",
                 header + "  double twice() const;\n};\n}\n"},
                {"src/obs/meter.cpp",
                 source + "double sa::Meter::twice() const {\n"
                          "  return 2 * reading();\n}\n"},
                {"tools/meter.cpp", "int main() { m.twice(); }\n"},
                test},
               {}});
  f.push_back({"field-of-same-name-is-not-a-call",
               {{"src/obs/meter.hpp", header + "};\n}\n"},
                {"bench/bench_meter.cpp",
                 "int main() { Sample s; s.reading = 2.0; }\n"},
                test},
               {"test-only-api"}});
  f.push_back({"free-function-passed-as-value-ok",
               {{"src/obs/units.hpp",
                 "#pragma once\nnamespace sa {\n"
                 "int unit_from_string(const char* s);\n}\n"},
                {"src/obs/table.cpp",
                 "int u = lookup(sa::unit_from_string, \"ms\");\n"}},
               {}});
  f.push_back({"private-member-ok",
               {{"src/obs/meter.hpp",
                 "#pragma once\nclass Meter {\n  double reading() const;\n"
                 " public:\n  double twice() const { return reading(); }\n"
                 " private:\n  double raw();\n};\n"},
                {"examples/meter.cpp", "int main() { m.twice(); }\n"}},
               {}});
  f.push_back({"test-observer-waiver-ok",
               {{"src/obs/meter.hpp",
                 header + "  // sa-lint: test-observer(tests read the "
                          "dial without a sink)\n  double dial() const;\n"
                          "};\n}\n"},
                {"bench/bench_meter.cpp", "int main() { m.reading(); }\n"},
                test},
               {}});
  f.push_back({"empty-test-observer-rejected",
               {{"src/obs/meter.hpp",
                 header + "  double dial() const;  // sa-lint: "
                          "test-observer()\n};\n}\n"},
                {"bench/bench_meter.cpp", "int main() { m.reading(); }\n"},
                test},
               {"test-only-api"}});
  return f;
}

int run_self_test() {
  int failures = 0;
  auto check = [&](const std::string& name,
                   const std::vector<Finding>& got,
                   const std::vector<std::string>& expect) {
    bool ok = got.size() == expect.size();
    if (ok) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].rule != expect[i]) ok = false;
      }
    }
    if (!ok) {
      ++failures;
      std::cerr << "self-test FAIL: " << name << " expected [";
      for (const auto& r : expect) std::cerr << r << " ";
      std::cerr << "] got [";
      for (const auto& v : got) {
        std::cerr << v.rule << "@" << v.line << " ";
      }
      std::cerr << "]\n";
    }
  };
  for (const Fixture& fx : self_test_fixtures()) {
    check(fx.name, analyze_content(fx.path, fx.content), fx.expect);
  }
  for (const TreeFixture& fx : tree_fixtures()) {
    check(fx.name, analyze_files(fx.files), fx.expect);
  }
  // The JSON emitter is part of the machine-readable contract: pin it.
  std::vector<Finding> one = analyze_content(
      "src/core/json.cpp", "int draw() { return rand(); }\n");
  const std::string json = findings_to_json(one);
  const std::string expected =
      "{\"findings\":[{\"file\":\"src/core/json.cpp\",\"line\":1,"
      "\"pass\":\"determinism\",\"rule\":\"deterministic-random\","
      "\"message\":\"rand() is banned in deterministic code; draw from an "
      "explicitly seeded util/rng Rng\"}],\"count\":1}";
  if (json != expected) {
    ++failures;
    std::cerr << "self-test FAIL: json-format\n  expected: " << expected
              << "\n  got:      " << json << "\n";
  }
  if (failures == 0) {
    std::cout << "stayaway_analyze self-test: "
              << self_test_fixtures().size() + tree_fixtures().size() + 1
              << " fixtures ok\n";
    return 0;
  }
  std::cerr << "stayaway_analyze self-test: " << failures
            << " fixture(s) failed\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-test") return run_self_test();
    if (arg == "--format=json") {
      json = true;
      continue;
    }
    if (arg == "--format=text") continue;
    if (arg.starts_with("--")) {
      std::cerr << "usage: stayaway_analyze [--self-test] "
                   "[--format=text|json] <root>...\n";
      return 2;
    }
    roots.push_back(arg);
  }
  if (roots.empty()) {
    std::cerr << "usage: stayaway_analyze [--self-test] "
                 "[--format=text|json] <root>...\n";
    return 2;
  }
  for (const std::string& root : roots) {
    if (!std::filesystem::exists(root)) {
      std::cerr << "stayaway_analyze: no such path: " << root << "\n";
      return 2;
    }
  }
  const std::vector<Finding> all = analyze_tree(roots);
  if (json) {
    std::cout << findings_to_json(all) << "\n";
    return all.empty() ? 0 : 1;
  }
  for (const Finding& v : all) {
    std::cerr << v.file << ":" << v.line << ": [" << v.pass << "] " << v.rule
              << ": " << v.message << "\n";
  }
  if (all.empty()) {
    std::cout << "stayaway_analyze: clean\n";
    return 0;
  }
  std::cerr << "stayaway_analyze: " << all.size() << " violation(s)\n";
  return 1;
}
