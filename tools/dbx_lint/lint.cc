#include "tools/dbx_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstring>

namespace dbx::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

std::string Trimmed(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Finds the matching `>` for the `<` at `open` (same line), respecting
/// nesting. Returns npos when unbalanced.
size_t MatchAngle(const std::string& line, size_t open) {
  int depth = 0;
  for (size_t i = open; i < line.size(); ++i) {
    if (line[i] == '<') ++depth;
    if (line[i] == '>' && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Reads an identifier starting at `pos` (after skipping spaces); returns it
/// and advances `pos` past it, or returns "" when none is there.
std::string ReadIdent(const std::string& line, size_t* pos) {
  size_t i = *pos;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  size_t b = i;
  while (i < line.size() && IsIdentChar(line[i])) ++i;
  if (i == b || std::isdigit(static_cast<unsigned char>(line[b])) != 0) {
    return "";
  }
  *pos = i;
  return line.substr(b, i - b);
}

/// Skips declaration prefix keywords (static/virtual/...) from `pos`.
void SkipDeclPrefixes(const std::string& line, size_t* pos) {
  static const char* kPrefixes[] = {"static",   "virtual", "inline",
                                    "constexpr", "explicit", "friend"};
  for (;;) {
    size_t save = *pos;
    std::string word = ReadIdent(line, pos);
    bool is_prefix = false;
    for (const char* p : kPrefixes) {
      if (word == p) is_prefix = true;
    }
    if (!is_prefix) {
      *pos = save;
      return;
    }
  }
}

/// Parses a `Status`/`Result<...>`-by-value function declaration from a
/// (stripped) header line: optional [[nodiscard]], optional prefixes, the
/// return type, then `name(`. Returns the function name or "".
std::string ParseStatusDecl(const std::string& code_line,
                            bool* has_nodiscard) {
  std::string t = Trimmed(code_line);
  if (t.empty() || t[0] == '#') return "";
  if (StartsWith(t, "return") || StartsWith(t, "using") ||
      StartsWith(t, "typedef")) {
    return "";
  }
  *has_nodiscard = t.find("[[nodiscard]]") != std::string::npos;
  size_t pos = 0;
  // Strip the attribute (and anything before the prefix keywords) by
  // restarting after the last ']]' when present.
  if (*has_nodiscard) {
    pos = t.find("[[nodiscard]]") + std::string("[[nodiscard]]").size();
  }
  SkipDeclPrefixes(t, &pos);
  std::string type = ReadIdent(t, &pos);
  if (type == "dbx") {
    if (t.compare(pos, 2, "::") != 0) return "";
    pos += 2;
    type = ReadIdent(t, &pos);
  }
  if (type != "Status" && type != "Result") return "";
  if (type == "Result") {
    while (pos < t.size() && t[pos] == ' ') ++pos;
    if (pos >= t.size() || t[pos] != '<') return "";
    size_t close = MatchAngle(t, pos);
    if (close == std::string::npos) return "";  // multi-line template args
    pos = close + 1;
  }
  // By-value only: a '&' or '*' here means an accessor returning a
  // reference/pointer, which carries no ownership of the error.
  while (pos < t.size() && t[pos] == ' ') ++pos;
  if (pos < t.size() && (t[pos] == '&' || t[pos] == '*')) return "";
  std::string name = ReadIdent(t, &pos);
  if (name.empty()) return "";  // constructor `Status(` or member variable
  while (pos < t.size() && t[pos] == ' ') ++pos;
  if (pos >= t.size() || t[pos] != '(') return "";  // `Status status_;`
  return name;
}

/// Extracts the trailing identifier of a range-for's range expression
/// (`name`, `*name`, `foo.name`, `state->name` all yield `name`).
std::string RangeExprIdent(const std::string& expr) {
  std::string t = Trimmed(expr);
  size_t end = t.size();
  while (end > 0 && !IsIdentChar(t[end - 1])) --end;
  size_t begin = end;
  while (begin > 0 && IsIdentChar(t[begin - 1])) --begin;
  return t.substr(begin, end - begin);
}

/// Parses a mutex member/variable declaration from a (stripped, trimmed)
/// code line: optional mutable/static, a mutex type — the std:: family or the
/// annotated dbx wrapper — then an identifier and `;`. Returns the declared
/// name or "". References and pointers (`Mutex&`, `std::mutex*`) are not
/// member mutexes and yield "".
std::string ParseMutexDecl(const std::string& code_line) {
  std::string t = Trimmed(code_line);
  if (t.empty() || t[0] == '#') return "";
  size_t pos = 0;
  for (;;) {
    size_t save = pos;
    std::string word = ReadIdent(t, &pos);
    if (word != "mutable" && word != "static") {
      pos = save;
      break;
    }
  }
  while (pos < t.size() && (t[pos] == ' ' || t[pos] == '\t')) ++pos;
  static const char* kTypes[] = {"std::mutex",       "std::recursive_mutex",
                                 "std::shared_mutex", "std::timed_mutex",
                                 "dbx::Mutex",        "Mutex"};
  bool matched = false;
  for (const char* type : kTypes) {
    const size_t n = std::strlen(type);
    if (t.compare(pos, n, type) == 0 &&
        !(pos + n < t.size() && IsIdentChar(t[pos + n]))) {
      pos += n;
      matched = true;
      break;
    }
  }
  if (!matched) return "";
  std::string name = ReadIdent(t, &pos);
  if (name.empty()) return "";
  while (pos < t.size() && t[pos] == ' ') ++pos;
  if (pos >= t.size() || t[pos] != ';') return "";
  return name;
}

struct Suppression {
  std::vector<std::string> rules;
  bool has_reason = false;
};

/// Parses a `dbx-lint: allow(a,b): reason` marker from a string-blanked line
/// (see StripStrings), so markers inside string literals never match.
bool ParseSuppression(const std::string& raw_line, Suppression* out) {
  size_t at = raw_line.find("dbx-lint:");
  if (at == std::string::npos) return false;
  size_t open = raw_line.find("allow(", at);
  if (open == std::string::npos) {
    out->rules.clear();  // malformed marker: flagged by the meta rule
    out->has_reason = false;
    return true;
  }
  size_t close = raw_line.find(')', open);
  if (close == std::string::npos) {
    out->rules.clear();
    out->has_reason = false;
    return true;
  }
  std::string list = raw_line.substr(open + 6, close - open - 6);
  out->rules.clear();
  std::string cur;
  for (char c : list + ",") {
    if (c == ',') {
      std::string r = Trimmed(cur);
      if (!r.empty()) out->rules.push_back(r);
      cur.clear();
    } else {
      cur += c;
    }
  }
  size_t colon = raw_line.find(':', close);
  out->has_reason =
      colon != std::string::npos && !Trimmed(raw_line.substr(colon + 1)).empty();
  return true;
}

}  // namespace

std::string Finding::ToString() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"file\": \"" + JsonEscape(f.file) +
           "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           JsonEscape(f.rule) + "\", \"message\": \"" + JsonEscape(f.message) +
           "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"determinism", "R1",
       "rand()/srand(), std::random_device, time(), and "
       "std::chrono::system_clock::now() are banned outside src/obs and "
       "bench; use dbx::Rng or steady_clock"},
      {"unordered-iter", "R1",
       "range-for over a std::unordered_map/unordered_set has unspecified "
       "order and may not feed IUnit/label/render output; iterate a sorted "
       "copy or an ordered container"},
      {"nodiscard", "R2",
       "Status/Result-returning declarations in headers must be "
       "[[nodiscard]]"},
      {"discarded-status", "R2",
       "an expression statement may not drop a Status/Result; check it, "
       "propagate it, or cast to (void) with a comment"},
      {"lock-discipline", "R3",
       "std::mutex members may only be taken via "
       "lock_guard/unique_lock/scoped_lock, never raw lock()/unlock()"},
      {"layering", "R4",
       "src/util includes only src/util; src/obs includes only src/util and "
       "src/obs; src/storage includes only src/{storage,relation,obs,util}; "
       "src/server includes only src/{server,explorer,query,obs,util}; no "
       "other src/ layer may include src/server, and only the "
       "engine/session/server glue (src/{query,explorer,server}) may include "
       "src/storage"},
      {"raw-stream", "R5",
       "std::cout/std::cerr diagnostics are banned in src/ outside src/obs; "
       "report through returned Status, the query log, or metrics (tools "
       "and bench own their stdio)"},
      {"guarded-by", "R6",
       "every mutex member in src/ (std::mutex family or dbx::Mutex) must "
       "guard something: annotate at least one member in the same file with "
       "DBX_GUARDED_BY(<that mutex>), or explain the exemption"},
      {"suppression", "meta",
       "every `dbx-lint: allow(rule)` must name a known rule (or rule class, "
       "e.g. R6) and carry a `: reason`"},
  };
  return kRules;
}

bool IsKnownRule(const std::string& rule) {
  for (const RuleInfo& r : Rules()) {
    if (rule == r.name || rule == r.rule_class) return true;
  }
  return false;
}

namespace {

/// The rule class ("R1".."R6"/"meta") of a rule id, or "" when unknown.
std::string RuleClassOf(const std::string& rule) {
  for (const RuleInfo& r : Rules()) {
    if (rule == r.name) return r.rule_class;
  }
  return "";
}

}  // namespace

namespace {

std::string StripImpl(const std::string& content, bool keep_comments) {
  std::string out;
  out.reserve(content.size());
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_close;  // e.g. `)delim"` for the active raw string
  for (size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += keep_comments ? "//" : "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += keep_comments ? "/*" : "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !IsIdentChar(content[i - 1]))) {
          size_t paren = content.find('(', i + 2);
          if (paren == std::string::npos) {
            out += c;
            break;
          }
          raw_close = ")" + content.substr(i + 2, paren - i - 2) + "\"";
          state = State::kRawString;
          for (size_t j = i; j <= paren; ++j) out += ' ';
          i = paren;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'' && (i == 0 || !IsIdentChar(content[i - 1]))) {
          // Identifier check keeps digit separators (1'000'000) intact.
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += keep_comments ? c : ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += keep_comments ? "*/" : "  ";
          ++i;
        } else if (c == '\n') {
          out += '\n';
        } else {
          out += keep_comments ? c : ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if (c == quote) {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      }
      case State::kRawString:
        if (content.compare(i, raw_close.size(), raw_close) == 0) {
          for (size_t j = 0; j < raw_close.size(); ++j) out += ' ';
          i += raw_close.size() - 1;
          state = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& content) {
  return StripImpl(content, /*keep_comments=*/false);
}

std::string StripStrings(const std::string& content) {
  return StripImpl(content, /*keep_comments=*/true);
}

void Linter::AddFile(const std::string& path, const std::string& content) {
  SourceFile f;
  f.path = path;
  f.raw_lines = SplitLines(content);
  f.code_lines = SplitLines(StripCommentsAndStrings(content));
  f.comment_lines = SplitLines(StripStrings(content));
  // A marker suppresses its own line; a marker on an otherwise code-free
  // line also covers the next line. Markers are read from the string-blanked
  // view: only a marker in an actual comment counts.
  for (size_t i = 0; i < f.comment_lines.size(); ++i) {
    Suppression s;
    if (!ParseSuppression(f.comment_lines[i], &s)) continue;
    for (const std::string& rule : s.rules) {
      f.allowed[i + 1].insert(rule);
      if (i < f.code_lines.size() && Trimmed(f.code_lines[i]).empty()) {
        f.allowed[i + 2].insert(rule);
      }
    }
  }
  files_.push_back(std::move(f));
}

std::vector<Finding> Linter::Run() {
  status_functions_.clear();
  mutex_members_.clear();
  for (const SourceFile& f : files_) CollectFacts(f);
  std::vector<Finding> findings;
  for (const SourceFile& f : files_) LintFile(f, &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

void Linter::CollectFacts(const SourceFile& f) {
  bool is_header = EndsWith(f.path, ".h");
  for (const std::string& line : f.code_lines) {
    if (is_header) {
      bool has_nodiscard = false;
      std::string name = ParseStatusDecl(line, &has_nodiscard);
      if (!name.empty()) status_functions_.insert(name);
    }
    // R3 registry: any std::mutex-family member/variable name.
    for (const char* type :
         {"std::mutex", "std::recursive_mutex", "std::shared_mutex",
          "std::timed_mutex"}) {
      size_t at = line.find(type);
      if (at == std::string::npos) continue;
      size_t pos = at + std::string(type).size();
      if (pos < line.size() && IsIdentChar(line[pos])) continue;  // timed_...
      std::string name = ReadIdent(line, &pos);
      if (!name.empty()) mutex_members_.insert(name);
    }
    // Annotated wrapper (src/util/mutex.h): a bare `Mutex` token followed by
    // an identifier declares a capability member; register it so R3 flags
    // raw lock()/unlock() on it exactly like on the std types. Boundary
    // checks keep MutexLock/CondVar and `Mutex&` parameters out.
    for (size_t at = line.find("Mutex"); at != std::string::npos;
         at = line.find("Mutex", at + 1)) {
      if (at > 0 && IsIdentChar(line[at - 1])) continue;
      size_t pos = at + 5;
      if (pos < line.size() && IsIdentChar(line[pos])) continue;  // MutexLock
      std::string name = ReadIdent(line, &pos);
      if (!name.empty()) mutex_members_.insert(name);
    }
  }
}

void Linter::Emit(const SourceFile& f, size_t line, const std::string& rule,
                  std::string message, std::vector<Finding>* out) const {
  auto it = f.allowed.find(line);
  if (it != f.allowed.end() &&
      (it->second.count(rule) > 0 ||
       it->second.count(RuleClassOf(rule)) > 0)) {
    return;
  }
  out->push_back(Finding{f.path, line, rule, std::move(message)});
}

void Linter::LintFile(const SourceFile& f, std::vector<Finding>* out) const {
  RuleDeterminism(f, out);
  RuleUnorderedIter(f, out);
  RuleNodiscard(f, out);
  RuleDiscardedStatus(f, out);
  RuleLockDiscipline(f, out);
  RuleLayering(f, out);
  RuleRawStream(f, out);
  RuleGuardedBy(f, out);
  // Meta rule: malformed or unexplained suppressions.
  for (size_t i = 0; i < f.comment_lines.size(); ++i) {
    Suppression s;
    if (!ParseSuppression(f.comment_lines[i], &s)) continue;
    if (s.rules.empty()) {
      out->push_back(Finding{f.path, i + 1, "suppression",
                             "malformed dbx-lint marker; use `dbx-lint: "
                             "allow(<rule>): <reason>`"});
      continue;
    }
    for (const std::string& rule : s.rules) {
      if (!IsKnownRule(rule)) {
        out->push_back(Finding{f.path, i + 1, "suppression",
                               "unknown rule '" + rule + "' in suppression"});
      }
    }
    if (!s.has_reason) {
      out->push_back(Finding{f.path, i + 1, "suppression",
                             "suppression without a reason; append `: "
                             "<why this is safe>`"});
    }
  }
}

void Linter::RuleDeterminism(const SourceFile& f,
                             std::vector<Finding>* out) const {
  bool in_scope = (StartsWith(f.path, "src/") && !StartsWith(f.path, "src/obs/")) ||
                  StartsWith(f.path, "tests/");
  if (!in_scope) return;
  struct Pattern {
    const char* needle;
    bool call;  // require the needle to be a call prefix (already has '(')
    const char* what;
  };
  static const Pattern kPatterns[] = {
      {"rand(", true, "rand()"},
      {"srand(", true, "srand()"},
      {"random_device", false, "std::random_device"},
      {"time(", true, "time()"},
      {"system_clock::now", false, "std::chrono::system_clock::now()"},
  };
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    const std::string& line = f.code_lines[i];
    for (const Pattern& p : kPatterns) {
      for (size_t at = line.find(p.needle); at != std::string::npos;
           at = line.find(p.needle, at + 1)) {
        if (at > 0 && IsIdentChar(line[at - 1])) continue;
        Emit(f, i + 1, "determinism",
             std::string(p.what) +
                 " is nondeterministic; use dbx::Rng with an explicit seed "
                 "(or steady_clock for durations)",
             out);
      }
    }
  }
}

void Linter::RuleUnorderedIter(const SourceFile& f,
                               std::vector<Finding>* out) const {
  if (!StartsWith(f.path, "src/")) return;
  // Pass 1: unordered container variable/member names declared in this file.
  std::set<std::string> unordered_vars;
  for (const std::string& line : f.code_lines) {
    for (const char* type : {"unordered_map", "unordered_set"}) {
      size_t at = line.find(type);
      if (at == std::string::npos) continue;
      size_t open = line.find('<', at);
      if (open == std::string::npos) continue;
      size_t close = MatchAngle(line, open);
      if (close == std::string::npos) continue;
      size_t pos = close + 1;
      std::string name = ReadIdent(line, &pos);
      if (name.empty()) continue;
      while (pos < line.size() && line[pos] == ' ') ++pos;
      if (pos < line.size() &&
          (line[pos] == ';' || line[pos] == '=' || line[pos] == '{')) {
        unordered_vars.insert(name);
      }
    }
  }
  if (unordered_vars.empty()) return;
  // Pass 2: range-fors whose range expression names one of them.
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    const std::string& line = f.code_lines[i];
    size_t at = line.find("for");
    if (at == std::string::npos) continue;
    if (at > 0 && IsIdentChar(line[at - 1])) continue;
    size_t open = line.find('(', at);
    if (open == std::string::npos) continue;
    size_t colon = line.find(':', open);
    size_t close = line.find(')', open);
    if (colon == std::string::npos || close == std::string::npos ||
        colon > close) {
      continue;  // classic for or multi-line header: out of heuristic reach
    }
    if (line[colon + 1] == ':') continue;  // `::` qualifier, not a range-for
    std::string ident = RangeExprIdent(line.substr(colon + 1, close - colon - 1));
    if (unordered_vars.count(ident) > 0) {
      Emit(f, i + 1, "unordered-iter",
           "range-for over unordered container '" + ident +
               "' has unspecified order; sort keys first or use an ordered "
               "container if this feeds output",
           out);
    }
  }
}

void Linter::RuleNodiscard(const SourceFile& f,
                           std::vector<Finding>* out) const {
  if (!EndsWith(f.path, ".h")) return;
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    bool has_nodiscard = false;
    std::string name = ParseStatusDecl(f.code_lines[i], &has_nodiscard);
    if (name.empty() || has_nodiscard) continue;
    // Accept the attribute on its own line directly above.
    if (i > 0 &&
        f.code_lines[i - 1].find("[[nodiscard]]") != std::string::npos) {
      continue;
    }
    Emit(f, i + 1, "nodiscard",
         "'" + name +
             "' returns Status/Result but is not [[nodiscard]]; a dropped "
             "error is a silent corruption",
         out);
  }
}

void Linter::RuleDiscardedStatus(const SourceFile& f,
                                 std::vector<Finding>* out) const {
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    std::string t = Trimmed(f.code_lines[i]);
    // Whole-statement calls only: `recv.Name(args);` with no assignment.
    if (t.empty() || !EndsWith(t, ";")) continue;
    // Single-line statements only: parens must balance on this line, and the
    // previous line must not hand an expression into this one (multi-line
    // discards are the compiler's job via the [[nodiscard]] classes).
    int depth = 0;
    for (char c : t) {
      if (c == '(') ++depth;
      if (c == ')') --depth;
    }
    if (depth != 0) continue;
    std::string prev;
    for (size_t j = i; j > 0; --j) {
      prev = Trimmed(f.code_lines[j - 1]);
      if (!prev.empty()) break;
    }
    if (!prev.empty()) {
      char tail = prev.back();
      bool statement_boundary = tail == ';' || tail == '{' || tail == '}' ||
                                tail == ')' || tail == ':' ||
                                EndsWith(prev, "else");
      if (!statement_boundary) continue;
    }
    if (StartsWith(t, "(void)") || StartsWith(t, "std::ignore")) continue;
    static const char* kKeywords[] = {"return", "if",   "while", "for",
                                      "switch", "case", "do",    "else",
                                      "co_return", "throw", "delete"};
    bool keyword = false;
    for (const char* k : kKeywords) {
      if (StartsWith(t, std::string(k) + " ") ||
          StartsWith(t, std::string(k) + "(")) {
        keyword = true;
      }
    }
    if (keyword || t[0] == '#') continue;
    // Parse a receiver chain `a.` / `a->` / `A::` then the callee name.
    size_t pos = 0;
    std::string last;
    for (;;) {
      size_t save = pos;
      std::string id = ReadIdent(t, &pos);
      if (id.empty()) {
        pos = save;
        break;
      }
      last = id;
      if (t.compare(pos, 2, "->") == 0) {
        pos += 2;
      } else if (t.compare(pos, 2, "::") == 0) {
        pos += 2;
      } else if (pos < t.size() && t[pos] == '.') {
        pos += 1;
      } else {
        break;
      }
    }
    if (last.empty() || pos >= t.size() || t[pos] != '(') continue;
    // An '=' before the call means the result is bound, not dropped.
    if (t.rfind('=', pos) != std::string::npos) continue;
    if (status_functions_.count(last) == 0) continue;
    Emit(f, i + 1, "discarded-status",
         "call to '" + last +
             "' drops its Status/Result; check it, DBX_RETURN_IF_ERROR it, "
             "or cast to (void) with a comment",
         out);
  }
}

void Linter::RuleLockDiscipline(const SourceFile& f,
                                std::vector<Finding>* out) const {
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    const std::string& line = f.code_lines[i];
    for (const char* op : {".lock(", ".unlock(", ".try_lock(", "->lock(",
                           "->unlock(", "->try_lock("}) {
      const std::string op_str(op);
      for (size_t at = line.find(op_str); at != std::string::npos;
           at = line.find(op_str, at + 1)) {
        // Identify the receiver identifier ending at `at`.
        size_t end = at;
        size_t begin = end;
        while (begin > 0 && IsIdentChar(line[begin - 1])) --begin;
        std::string recv = line.substr(begin, end - begin);
        if (mutex_members_.count(recv) == 0) continue;
        Emit(f, i + 1, "lock-discipline",
             "raw " + recv + op_str.substr(0, op_str.size() - 1) +
                 ") on a mutex member; use std::lock_guard/unique_lock/"
                 "scoped_lock so unlock is exception-safe",
             out);
      }
    }
  }
}

void Linter::RuleGuardedBy(const SourceFile& f,
                           std::vector<Finding>* out) const {
  // Library scope only: src/ holds the annotated capability types; tools,
  // bench, and tests lock ad hoc and are the compiler's (and TSAN's) problem.
  if (!StartsWith(f.path, "src/")) return;
  // Pass 1: every capability named by a GUARDED_BY / PT_GUARDED_BY argument
  // anywhere in the file (the annotations may sit lines away from the mutex).
  std::set<std::string> guarded;
  for (const std::string& line : f.code_lines) {
    for (size_t at = line.find("GUARDED_BY("); at != std::string::npos;
         at = line.find("GUARDED_BY(", at + 1)) {
      const size_t open = at + std::strlen("GUARDED_BY(");
      const size_t close = line.find(')', open);
      if (close == std::string::npos) continue;
      std::string arg = RangeExprIdent(line.substr(open, close - open));
      if (!arg.empty()) guarded.insert(arg);
    }
  }
  // Pass 2: every mutex member declaration must be one of those capabilities.
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    std::string name = ParseMutexDecl(f.code_lines[i]);
    if (name.empty() || guarded.count(name) > 0) continue;
    Emit(f, i + 1, "guarded-by",
         "mutex member '" + name +
             "' guards nothing in this file; annotate its protected state "
             "with DBX_GUARDED_BY(" + name +
             ") (src/util/thread_annotations.h) or add a reasoned allow",
         out);
  }
}

void Linter::RuleRawStream(const SourceFile& f,
                           std::vector<Finding>* out) const {
  // Library scope only: src/ minus src/obs/ (the observability layer is the
  // sanctioned sink and may render to streams). tools/ and bench/ are CLI
  // surfaces — their stdio IS the interface.
  const bool in_scope =
      StartsWith(f.path, "src/") && !StartsWith(f.path, "src/obs/");
  if (!in_scope) return;
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    const std::string& line = f.code_lines[i];
    for (const char* stream : {"std::cerr", "std::cout"}) {
      const size_t at = line.find(stream);
      if (at == std::string::npos) continue;
      // Identifier boundary on the right (left is guaranteed by "std::").
      const size_t end = at + std::strlen(stream);
      if (end < line.size() && IsIdentChar(line[end])) continue;
      Emit(f, i + 1, "raw-stream",
           std::string("raw ") + stream +
               " diagnostic in library code; return a Status, append to the "
               "query log, or bump a metric instead",
           out);
    }
  }
}

void Linter::RuleLayering(const SourceFile& f,
                          std::vector<Finding>* out) const {
  struct Layer {
    const char* dir;
    std::vector<const char*> allowed;
  };
  static const std::vector<Layer> kLayers = {
      {"src/util/", {"src/util/"}},
      {"src/obs/", {"src/util/", "src/obs/"}},
      // Storage is a leaf subsystem over the data model: it may read and
      // build relations, but knows nothing about discretization, the CAD
      // View pipeline or query/session/server machinery.
      {"src/storage/",
       {"src/storage/", "src/relation/", "src/obs/", "src/util/"}},
      // The server sits at the top of the stack: it may use the exploration
      // and query layers (plus obs/util), but nothing below may know it
      // exists — the dispatcher stays a pure consumer of the library.
      {"src/server/",
       {"src/server/", "src/explorer/", "src/query/", "src/obs/",
        "src/util/"}},
  };
  const bool below_server =
      StartsWith(f.path, "src/") && !StartsWith(f.path, "src/server/");
  // Only the engine/session/server glue may pull storage in; the library
  // layers below stay backend-agnostic (DESIGN.md §15).
  const bool storage_blind =
      StartsWith(f.path, "src/") && !StartsWith(f.path, "src/storage/") &&
      !StartsWith(f.path, "src/query/") &&
      !StartsWith(f.path, "src/explorer/") &&
      !StartsWith(f.path, "src/server/");
  for (size_t i = 0; i < f.raw_lines.size(); ++i) {
    const std::string& raw = f.raw_lines[i];
    size_t hash = raw.find_first_not_of(" \t");
    if (hash == std::string::npos || raw[hash] != '#') continue;
    size_t inc = raw.find("include", hash);
    if (inc == std::string::npos) continue;
    size_t q1 = raw.find('"', inc);
    if (q1 == std::string::npos) continue;
    size_t q2 = raw.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    std::string path = raw.substr(q1 + 1, q2 - q1 - 1);
    if (!StartsWith(path, "src/")) continue;
    if (below_server && StartsWith(path, "src/server/")) {
      Emit(f, i + 1, "layering",
           "only src/server may include \"" + path +
               "\"; the library layers must not depend on the server",
           out);
      continue;
    }
    if (storage_blind && StartsWith(path, "src/storage/")) {
      Emit(f, i + 1, "layering",
           "only the engine/session/server glue may include \"" + path +
               "\"; the library layers stay storage-backend-agnostic",
           out);
      continue;
    }
    for (const Layer& layer : kLayers) {
      if (!StartsWith(f.path, layer.dir)) continue;
      bool ok = false;
      for (const char* allowed : layer.allowed) {
        if (StartsWith(path, allowed)) ok = true;
      }
      if (!ok) {
        Emit(f, i + 1, "layering",
             std::string(layer.dir) + " may not include \"" + path +
                 "\"; it sits below that layer",
             out);
      }
    }
  }
}

}  // namespace dbx::lint
