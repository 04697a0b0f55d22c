// stayaway_analyze: multi-pass static analyzer for the repo (DESIGN.md
// §16). Grown out of the old line-regex stayaway_lint: the line scanner
// is replaced by a real tokenizer (comment-, string-, raw-string- and
// preprocessor-aware), and the single rule list by four passes that each
// walk the token stream:
//
//   include-graph    every `#include "module/..."` must respect the
//                    declared layering table (util depends on nothing,
//                    apps never include core, stages/ may only see
//                    sim/vm.hpp from sim, ...). The checkpoint codec
//                    (src/core/checkpoint.*) is its own table entry
//                    sitting above core, and pipeline stages may never
//                    include it: stages serialize through the
//                    StateWriter handed to save_state(), the envelope /
//                    checksum / restore I/O stays in the supervisor
//                    layer. The cluster coordinator (src/core/cluster/)
//                    is likewise its own entry above core and may never
//                    include sim/ (not even sim/vm.hpp): it reads hosts
//                    through the core/pipeline.hpp seam and takes IDs
//                    from core/stages/stage.hpp. One parallelism axis:
//                    fleet workers are the library's only threads, so
//                    under src/ only the fleet controller
//                    (src/core/fleet.*) may include util/thread_pool.hpp.
//                    System includes are ignored — usage is policed by
//                    the determinism pass.
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
//                    or experiments stop reproducing.
//   style            `#pragma once` in every header, no `using
//                    namespace` in headers, no naked new/delete in
//                    library or tool code, no std::cout/cerr/clog in
//                    library code (the obs sinks own output), no direct
//                    HostSampler::sample() calls outside the synchronous
//                    SampleSource, and no sim::SimHost mention inside
//                    pipeline stages (the ActuationPort seam).
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
  std::vector<std::size_t> waiver_lines;  // `// sa-lint: unguarded(...)`
};

SourceFile make_source(std::string path, const std::string& content) {
  SourceFile f;
  f.path = std::move(path);
  f.tokens = tokenize(content);
  for (const Token& t : f.tokens) {
    if (t.kind != Tok::Comment) continue;
    std::size_t pos = t.text.find("sa-lint:");
    if (pos == std::string::npos) continue;
    std::size_t open = t.text.find("unguarded(", pos);
    if (open == std::string::npos) continue;
    // Require a non-empty reason; the closing paren may sit on a
    // continuation comment line, so it is not demanded here.
    std::size_t reason = open + std::string("unguarded(").size();
    if (reason < t.text.size() && t.text[reason] != ')') {
      f.waiver_lines.push_back(t.line);
    }
  }
  return f;
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

/// One parallelism axis (DESIGN.md §9): the fleet controller's worker pool
/// is the library's only source of threads. Under src/ only
/// src/core/fleet.* (and the pool's own implementation) may include it.
bool may_include_thread_pool(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = path.substr(0, slash + 1);
  const std::string file = path.substr(slash + 1);
  return (dir.ends_with("src/core/") && file.starts_with("fleet.")) ||
         (dir.ends_with("src/util/") && file.starts_with("thread_pool."));
}

void include_graph_pass(const SourceFile& f, std::vector<Finding>& out) {
  const std::string mod = module_of(f.path);
  const bool in_stages = path_has_dir(f.path, "stages/");
  const bool in_cluster = mod == "cluster";
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind == Tok::HeaderName && !t.text.starts_with("<")) {
      const std::string dep = include_module(t.text);
      // Stage isolation: stages/ may take sim's ID vocabulary
      // (sim/vm.hpp) but nothing that reaches the simulated host.
      // Checkpoint isolation: a stage serializes itself through the
      // StateWriter/StateReader its save_state()/load_state() hooks are
      // handed (util/statecodec.hpp is fine); the envelope, checksum and
      // restore I/O belong to the supervisor layer, never to a stage.
      if (in_stages && dep == "checkpoint") {
        out.push_back({f.path, t.line, "include-graph",
                       "checkpoint-isolation",
                       "pipeline stages must not include " + t.text +
                           "; stages serialize through the StateWriter "
                           "handed to save_state(), checkpoint envelope "
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
                       "only src/core/fleet.* may include " + t.text +
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
    // Consume a waiver sitting on the declaration or in the comment
    // block immediately above it (up to 4 lines, one waiver per field).
    bool waived = false;
    for (std::size_t& w : free_waivers) {
      if (w != 0 && w <= m.name_line && w + 4 >= m.first_line) {
        w = 0;  // consumed
        waived = true;
        break;
      }
    }
    if (waived) continue;
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

void determinism_pass(const SourceFile& f, std::vector<Finding>& out) {
  if (!library_code(f.path) || !deterministic_domain(f.path)) return;
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
// Driver

std::vector<Finding> analyze_content(const std::string& path,
                                     const std::string& content) {
  SourceFile f = make_source(path, content);
  std::vector<Finding> out;
  include_graph_pass(f, out);
  lock_discipline_pass(f, out);
  determinism_pass(f, out);
  style_pass(f, out);
  std::sort(out.begin(), out.end(), finding_order);
  return out;
}

std::vector<Finding> analyze_tree(const std::string& root) {
  std::vector<Finding> out;
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
    std::vector<Finding> v = analyze_content(file.generic_string(), buf.str());
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
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
  f.push_back({"thread-pool-in-fleet-ok", "src/core/fleet.cpp",
               "#include \"util/thread_pool.hpp\"\n",
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

int run_self_test() {
  int failures = 0;
  for (const Fixture& fx : self_test_fixtures()) {
    std::vector<Finding> got = analyze_content(fx.path, fx.content);
    bool ok = got.size() == fx.expect.size();
    if (ok) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].rule != fx.expect[i]) ok = false;
      }
    }
    if (!ok) {
      ++failures;
      std::cerr << "self-test FAIL: " << fx.name << " expected [";
      for (const auto& r : fx.expect) std::cerr << r << " ";
      std::cerr << "] got [";
      for (const auto& v : got) {
        std::cerr << v.rule << "@" << v.line << " ";
      }
      std::cerr << "]\n";
    }
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
              << self_test_fixtures().size() + 1 << " fixtures ok\n";
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
  std::vector<Finding> all;
  for (const std::string& root : roots) {
    if (!std::filesystem::exists(root)) {
      std::cerr << "stayaway_analyze: no such path: " << root << "\n";
      return 2;
    }
    std::vector<Finding> v = analyze_tree(root);
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end(), finding_order);
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
