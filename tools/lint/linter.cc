#include "lint/linter.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace dcmt {
namespace lint {
namespace {

/// A token from the comment/string-stripped source: text plus 1-based line.
struct Token {
  std::string text;
  int line = 0;
};

/// Per-file scan state produced by the stripper: token stream, include
/// directives, and waived (line, rule) pairs.
struct Scan {
  std::vector<Token> tokens;
  /// (line, header-spelling) for every #include directive.
  std::vector<std::pair<int, std::string>> includes;
  /// Guard macro names of the leading #ifndef/#define pair (empty if absent).
  std::string ifndef_macro;
  std::string define_macro;
  /// Rules waived per line (the waiver comment's line and the next line).
  std::map<int, std::set<std::string>> waivers;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

void RecordWaiver(const std::string& comment, int line, Scan* scan) {
  const std::string kTag = "dcmt-lint: allow(";
  std::size_t pos = comment.find(kTag);
  while (pos != std::string::npos) {
    const std::size_t open = pos + kTag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::stringstream rules(comment.substr(open, close - open));
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      rule.erase(std::remove_if(rule.begin(), rule.end(),
                                [](char c) { return std::isspace(
                                    static_cast<unsigned char>(c)); }),
                 rule.end());
      if (rule.empty()) continue;
      scan->waivers[line].insert(rule);
      scan->waivers[line + 1].insert(rule);
    }
    pos = comment.find(kTag, close);
  }
}

/// Records a preprocessor directive line (already comment-stripped).
void RecordDirective(const std::string& dir, int line, Scan* scan) {
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < dir.size() && (dir[i] == ' ' || dir[i] == '\t')) ++i;
  };
  skip_ws();
  if (i >= dir.size() || dir[i] != '#') return;
  ++i;
  skip_ws();
  std::size_t kw_start = i;
  while (i < dir.size() && IsIdentChar(dir[i])) ++i;
  const std::string keyword = dir.substr(kw_start, i - kw_start);
  skip_ws();
  if (keyword == "include") {
    if (i < dir.size() && (dir[i] == '<' || dir[i] == '"')) {
      const char close = dir[i] == '<' ? '>' : '"';
      const std::size_t end = dir.find(close, i + 1);
      if (end != std::string::npos) {
        scan->includes.emplace_back(line, dir.substr(i, end - i + 1));
      }
    }
  } else if (keyword == "ifndef" || keyword == "define") {
    std::size_t name_start = i;
    while (i < dir.size() && IsIdentChar(dir[i])) ++i;
    const std::string name = dir.substr(name_start, i - name_start);
    if (keyword == "ifndef" && scan->ifndef_macro.empty()) {
      scan->ifndef_macro = name;
    } else if (keyword == "define" && scan->define_macro.empty() &&
               !scan->ifndef_macro.empty()) {
      scan->define_macro = name;
    }
  }
}

/// Single pass over the raw source: strips comments, string literals, and
/// char literals (so rule matching never fires inside them), tokenizes the
/// rest, collects #include / guard directives, and harvests waiver comments.
Scan ScanSource(const std::string& src) {
  Scan scan;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  std::string directive;        // current preprocessor line, sans comments
  bool in_directive = false;

  auto flush_directive = [&](int dir_line) {
    if (in_directive) RecordDirective(directive, dir_line, &scan);
    directive.clear();
    in_directive = false;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      // Line splices (backslash-newline) keep a directive open.
      if (in_directive && !directive.empty() && directive.back() == '\\') {
        directive.pop_back();
      } else {
        flush_directive(line);
      }
      ++line;
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      RecordWaiver(src.substr(i, end - i), line, &scan);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t end = src.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      const std::string body = src.substr(i, end - i);
      RecordWaiver(body, line, &scan);
      line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
      i = end == n ? n : end + 2;
      continue;
    }
    // String / char literal (handles escapes; raw strings in this codebase
    // contain no quotes worth worrying about).
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;
      if (in_directive) directive += quote;  // keep includes parseable
      continue;
    }
    if (c == '#' && !in_directive) {
      // Only treat as a directive when # starts the line's non-whitespace.
      bool line_start = true;
      for (std::size_t j = i; j-- > 0 && src[j] != '\n';) {
        if (src[j] != ' ' && src[j] != '\t') {
          line_start = false;
          break;
        }
      }
      if (line_start) {
        in_directive = true;
        directive = "#";
        ++i;
        continue;
      }
    }
    if (in_directive) {
      directive += c;
      ++i;
      continue;
    }
    // Identifier / keyword.
    if (IsIdentStart(c)) {
      std::size_t start = i;
      while (i < n && IsIdentChar(src[i])) ++i;
      scan.tokens.push_back({src.substr(start, i - start), line});
      continue;
    }
    // pp-number (covers int and float literals, incl. exponent signs).
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(src[i + 1]))) {
      std::size_t start = i;
      while (i < n) {
        const char d = src[i];
        if (IsIdentChar(d) || d == '.') {
          ++i;
        } else if ((d == '+' || d == '-') && i > start &&
                   (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                    src[i - 1] == 'p' || src[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      scan.tokens.push_back({src.substr(start, i - start), line});
      continue;
    }
    // Multi-char punctuators the rules care about; everything else is
    // emitted as a single char.
    if (i + 1 < n) {
      const std::string two = src.substr(i, 2);
      if (two == "::" || two == "==" || two == "!=" || two == "->" ||
          two == "<=" || two == ">=" || two == "&&" || two == "||" ||
          two == "+=" || two == "-=" || two == "*=" || two == "/=") {
        scan.tokens.push_back({two, line});
        i += 2;
        continue;
      }
    }
    if (!std::isspace(static_cast<unsigned char>(c))) {
      scan.tokens.push_back({std::string(1, c), line});
    }
    ++i;
  }
  flush_directive(line);
  return scan;
}

bool IsFloatLiteral(const std::string& t) {
  if (t.empty() || !(IsDigit(t[0]) || t[0] == '.')) return false;
  if (t.size() > 1 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) return false;
  if (t.find('.') != std::string::npos) return true;
  if (t.find('e') != std::string::npos || t.find('E') != std::string::npos) {
    return true;
  }
  const char last = t.back();
  return last == 'f' || last == 'F';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// DCMT_<PATH>_H_ with the leading src/ dropped (matching the repo's
/// existing guards: src/eval/flags.h -> DCMT_EVAL_FLAGS_H_).
std::string ExpectedGuard(const std::string& rel_path) {
  std::string p = rel_path;
  if (StartsWith(p, "src/")) p = p.substr(4);
  std::string guard = "DCMT_";
  for (char c : p) {
    if (c == '/' || c == '.') {
      guard += '_';
    } else {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    }
  }
  guard += '_';
  return guard;
}

class Linter {
 public:
  Linter(const std::string& path, const std::string& tests_cmake)
      : path_(path), tests_cmake_(tests_cmake) {}

  std::vector<Diagnostic> Run(const std::string& content) {
    scan_ = ScanSource(content);
    CheckIncludes();
    CheckTokens();
    CheckTestRegistration();
    return std::move(diags_);
  }

 private:
  void Report(const std::string& rule, int line, const std::string& message) {
    auto it = scan_.waivers.find(line);
    if (it != scan_.waivers.end() && it->second.count(rule) > 0) return;
    diags_.push_back({path_, line, rule, message});
  }

  const Token* Prev(std::size_t i, std::size_t back = 1) const {
    return i >= back ? &scan_.tokens[i - back] : nullptr;
  }
  const Token* Next(std::size_t i) const {
    return i + 1 < scan_.tokens.size() ? &scan_.tokens[i + 1] : nullptr;
  }

  // src/core/ owns the thread-pool runtime. Under src/serve/ the sanction
  // is per-file, not blanket: engine (request queue + dispatcher thread) and
  // router (swap double-buffer + engine fleet) own locks/atomics by design;
  // everything else in the serving tier (frozen_model, future additions) is
  // plain value code and must stay that way.
  bool InConcurrencySite() const {
    return StartsWith(path_, "src/core/") ||
           StartsWith(path_, "src/serve/engine.") ||
           StartsWith(path_, "src/serve/router.");
  }

  // The sharded streaming data path: every byte it reads or writes must go
  // through core::FileSystem, or the fault-injection suite stops covering
  // the code production actually runs.
  bool InStreamIoSite() const {
    return StartsWith(path_, "src/data/shard") ||
           StartsWith(path_, "src/data/stream");
  }

  void CheckIncludes() {
    const bool sanctioned = InConcurrencySite();
    static const std::set<std::string> kConcurrencyHeaders = {
        "<thread>", "<mutex>", "<atomic>", "<condition_variable>",
        "<shared_mutex>", "<future>"};
    std::map<std::string, int> first_seen;
    for (const auto& [line, header] : scan_.includes) {
      if (!sanctioned && kConcurrencyHeaders.count(header) > 0) {
        Report("concurrency", line,
               "include of " + header +
                   " outside src/core/ or the serve engine/router "
                   "files — use core::ThreadPool or "
                   "serve::Engine, the sanctioned concurrency sites");
      }
      if (InStreamIoSite() && header == "<fstream>") {
        Report("stream-io", line,
               "include of <fstream> in the sharded data path — all I/O "
               "must flow through core::FileSystem so fault injection "
               "covers it");
      }
      auto [it, inserted] = first_seen.emplace(header, line);
      if (!inserted) {
        Report("duplicate-include", line,
               header + " already included at line " +
                   std::to_string(it->second));
      }
    }
    // Header guard convention (headers only).
    if (path_.size() > 2 && path_.compare(path_.size() - 2, 2, ".h") == 0) {
      const std::string expected = ExpectedGuard(path_);
      if (scan_.ifndef_macro != expected || scan_.define_macro != expected) {
        Report("include-guard", 1,
               "header must open with '#ifndef " + expected + "' / '#define " +
                   expected + "' (found '" +
                   (scan_.ifndef_macro.empty() ? "<none>" : scan_.ifndef_macro) +
                   "')");
      }
    }
  }

  void CheckTokens() {
    const bool sanctioned = InConcurrencySite();
    const bool in_serve = StartsWith(path_, "src/serve/");
    const bool in_random = StartsWith(path_, "src/tensor/random.");
    // src/tensor/kernels* is the sanctioned raw-loop micro-kernel layer
    // (DESIGN.md §14): hand-vectorized code whose exact-identity float
    // comparisons (exp(0) == 1, zero-masked lanes) ARE the determinism
    // contract, so float-eq does not apply there.
    const bool in_kernels = StartsWith(path_, "src/tensor/kernels");
    static const std::set<std::string> kConcurrencyIdents = {
        "thread",      "mutex",          "atomic",      "condition_variable",
        "lock_guard",  "unique_lock",    "scoped_lock", "shared_mutex",
        "shared_lock", "recursive_mutex", "future",     "async",
        "jthread"};
    static const std::set<std::string> kNondetCalls = {"rand", "srand", "time",
                                                       "clock", "drand48"};
    static const std::set<std::string> kNondetTypes = {"random_device",
                                                       "mt19937",
                                                       "mt19937_64",
                                                       "default_random_engine"};
    // Tape mutation entry points: serving must stay value-only, so none of
    // these may appear under src/serve/ (the parity proof depends on it).
    static const std::set<std::string> kTapeMutators = {
        "Backward", "SetBackwardFn", "backward_fn", "EnsureGrad", "ZeroGrad",
        "AccumulateGrad"};
    const bool stream_io_site = InStreamIoSite();
    // Direct-I/O entry points forbidden in the sharded data path (the
    // fault-injection seam is core::FileSystem; anything bypassing it is
    // untestable against torn writes and corruption).
    static const std::set<std::string> kDirectIo = {
        "fopen", "fread", "fwrite", "fclose", "ifstream", "ofstream",
        "fstream", "mmap"};
    const std::vector<Token>& toks = scan_.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (stream_io_site && kDirectIo.count(t.text) > 0) {
        Report("stream-io", t.line,
               "'" + t.text +
                   "' in the sharded data path — route I/O through "
                   "core::FileSystem so the fault-injection tests cover it");
      }
      // std::<concurrency-primitive> outside the sanctioned sites.
      if (!sanctioned && t.text == "std") {
        const Token* colons = Next(i);
        const Token* name =
            i + 2 < toks.size() ? &toks[i + 2] : nullptr;
        if (colons != nullptr && colons->text == "::" && name != nullptr &&
            kConcurrencyIdents.count(name->text) > 0) {
          Report("concurrency", t.line,
                 "std::" + name->text +
                     " outside src/core/ or the serve engine/router "
                     "files — use core::ThreadPool or "
                     "serve::Engine, the sanctioned concurrency sites");
        }
      }
      // Backward-pass / tape mutation inside the serving subsystem.
      if (in_serve && kTapeMutators.count(t.text) > 0) {
        Report("serve-no-backward", t.line,
               "'" + t.text +
                   "' under src/serve/ — the serving path is value-only; "
                   "autograd belongs to the training stack");
      }
      // Raw new / delete.
      if (t.text == "new") {
        Report("raw-new-delete", t.line,
               "raw 'new' — own allocations with containers, "
               "std::make_unique/std::make_shared, or an owning type");
      } else if (t.text == "delete") {
        const Token* prev = Prev(i);
        const bool deleted_fn = prev != nullptr && prev->text == "=";
        if (!deleted_fn) {
          Report("raw-new-delete", t.line,
                 "raw 'delete' — pair allocation and release inside an "
                 "owning type or use a smart pointer");
        }
      }
      // ==/!= against a floating-point literal (exempt in the kernel layer,
      // where exact identities are the contract).
      if (!in_kernels && (t.text == "==" || t.text == "!=")) {
        const Token* prev = Prev(i);
        const Token* next = Next(i);
        const bool prev_float =
            prev != nullptr && IsFloatLiteral(prev->text);
        const bool next_float =
            next != nullptr && IsFloatLiteral(next->text);
        if (prev_float || next_float) {
          Report("float-eq", t.line,
                 "'" + t.text +
                     "' against a floating-point literal — compare with a "
                     "tolerance, or waive where bit-exactness is the "
                     "contract");
        }
      }
      // Nondeterminism sources outside the seeded RNG module.
      if (!in_random) {
        const Token* prev = Prev(i);
        const Token* next = Next(i);
        const bool member_access =
            prev != nullptr && (prev->text == "." || prev->text == "->");
        const bool foreign_qualified =
            prev != nullptr && prev->text == "::" &&
            (Prev(i, 2) == nullptr || Prev(i, 2)->text != "std");
        if (kNondetCalls.count(t.text) > 0 && next != nullptr &&
            next->text == "(" && !member_access && !foreign_qualified) {
          Report("nondeterminism", t.line,
                 "'" + t.text +
                     "()' is a nondeterminism source — draw from the seeded "
                     "dcmt::Rng (src/tensor/random.h) instead");
        }
        if (kNondetTypes.count(t.text) > 0 && !member_access) {
          Report("nondeterminism", t.line,
                 "'std::" + t.text +
                     "' is a nondeterminism source — draw from the seeded "
                     "dcmt::Rng (src/tensor/random.h) instead");
        }
      }
    }
  }

  void CheckTestRegistration() {
    if (tests_cmake_.empty()) return;
    if (!StartsWith(path_, "tests/")) return;
    const std::string file = path_.substr(6);
    if (file.find('/') != std::string::npos) return;  // fixtures subdirs
    const std::size_t suffix = file.rfind("_test.cc");
    if (suffix == std::string::npos || suffix + 8 != file.size()) return;
    const std::string target = file.substr(0, file.size() - 3);  // drop .cc
    // Accept any whitespace between the macro name and the target.
    std::string needle = "dcmt_add_test(" + target + ")";
    if (tests_cmake_.find(needle) == std::string::npos) {
      Report("test-registration", 1,
             "tests/" + file + " is not registered via dcmt_add_test(" +
                 target + ") in tests/CMakeLists.txt — the suite would "
                 "silently drop out of ctest");
    }
  }

  std::string path_;
  std::string tests_cmake_;
  Scan scan_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::string Diagnostic::ToString() const {
  return file + ":" + std::to_string(line) + ": " + rule + ": " + message;
}

std::vector<Diagnostic> LintFileContent(const std::string& repo_rel_path,
                                        const std::string& content,
                                        const std::string& tests_cmake) {
  Linter linter(repo_rel_path, tests_cmake);
  return linter.Run(content);
}

std::vector<Diagnostic> LintTree(const std::string& root,
                                 const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<Diagnostic> all;

  std::string tests_cmake;
  {
    std::ifstream in(fs::path(root) / "tests" / "CMakeLists.txt");
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      tests_cmake = ss.str();
    }
  }

  auto lint_file = [&](const fs::path& abs) {
    const std::string ext = abs.extension().string();
    if (ext != ".cc" && ext != ".h") return;
    std::ifstream in(abs);
    if (!in) return;
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string rel =
        fs::relative(abs, fs::path(root)).generic_string();
    std::vector<Diagnostic> diags = LintFileContent(rel, ss.str(), tests_cmake);
    all.insert(all.end(), diags.begin(), diags.end());
  };

  auto skip_dir = [](const fs::path& dir) {
    const std::string name = dir.filename().string();
    return StartsWith(name, "build") || name == ".git" ||
           name == "lint_fixtures" || name == "third_party";
  };

  for (const std::string& p : paths) {
    const fs::path base = fs::path(root) / p;
    if (fs::is_regular_file(base)) {
      lint_file(base);
      continue;
    }
    if (!fs::is_directory(base)) continue;
    fs::recursive_directory_iterator it(base), end;
    while (it != end) {
      if (it->is_directory() && skip_dir(it->path())) {
        it.disable_recursion_pending();
      } else if (it->is_regular_file()) {
        lint_file(it->path());
      }
      ++it;
    }
  }

  std::sort(all.begin(), all.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return all;
}

}  // namespace lint
}  // namespace dcmt
