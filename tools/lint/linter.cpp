#include "linter.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/json.hpp"

namespace szx::lint {
namespace {

constexpr std::array<std::string_view, 5> kAllowlist = {
    "byte_cursor.hpp", "stream.hpp", "bitops.hpp", "arena.hpp", "sync.hpp"};

// Header fields that arrive from an untrusted stream.  An allocation sized
// by one of these without CheckedAlloc is the bug class this repo has been
// bitten by (resize-before-validation).
constexpr std::array<std::string_view, 11> kHeaderFields = {
    "num_elements",  "num_blocks",   "num_constant",     "payload_bytes",
    "original_bytes", "num_unpredictable", "num_regression", "frame_bytes",
    "block_bits",    "zsize",        "original_size"};

// Substrings that mark a cast argument as size-like for unchecked-narrow.
constexpr std::array<std::string_view, 5> kSizeHints = {
    "size", "bytes", "count", "offset", "length"};

constexpr std::array<std::string_view, 8> kNarrowTypes = {
    "std::uint8_t",  "std::uint16_t", "std::uint32_t", "uint8_t",
    "uint16_t",      "uint32_t",      "unsigned char", "unsigned short"};

const std::vector<RuleInfo> kRules = {
    {"raw-memcpy",
     "memcpy/memmove on stream bytes; use ByteCursor or ByteWriter"},
    {"reinterpret-cast",
     "reinterpret_cast outside the audited byte primitives"},
    {"ptr-arith",
     ".data() + offset pointer arithmetic; use span subspan or ByteCursor"},
    {"unchecked-alloc",
     "allocation sized by an unvalidated stream header field without "
     "CheckedAlloc"},
    {"unchecked-narrow",
     "narrowing static_cast of a size-like value without CheckedNarrow"},
    {"simd-mem",
     "raw SIMD load/store/gather intrinsic; each one must explain its "
     "bounds guarantee"},
    {"memory-order",
     "std::memory_order use without an adjacent `// szx-mo:` happens-before "
     "justification"},
    {"implicit-seq-cst",
     "atomic operation with no explicit memory order; spell the order and "
     "justify it with szx-mo"},
    {"naked-lock",
     "direct .lock()/.unlock() on a mutex; use sync::MutexLock RAII"},
    {"condvar-wait",
     "condition-variable wait that does not pass a held MutexLock (or a raw "
     "std::condition_variable declaration; use sync::CondVar)"},
    {"hot-alloc",
     "allocation inside an `// szx-hot` file; hot paths allocate only "
     "through ScratchArena"},
    {"missing-nodiscard",
     "status-returning declaration without [[nodiscard]]"},
    {"stale-mo",
     "szx-mo comment that justifies no memory_order site (or is empty)"},
    {"uninit-bytes",
     "ByteBuffer grown without a value (sized constructor, one-argument "
     "resize) and no adjacent `// szx-overwrite:` saying what writes every "
     "byte"},
    {"strict-zone",
     "allow directive inside a strict zone (src/resilience/, src/serve/), "
     "where suppressions are refused outright"},
    {"unexplained-allow", "allow directive without a `-- reason`"},
    {"unused-allow", "allow directive that suppresses nothing"},
    {"unknown-rule", "allow directive naming a rule that does not exist"},
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsLintableRule(std::string_view name) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return r.name == name; });
}

// ---------------------------------------------------------------------------
// Pass 1: strip comments and string/char literals so the rule scan only sees
// code, while collecting comment text for directive parsing.

struct Comment {
  int line = 0;           // line the comment starts on
  bool code_before = false;  // non-whitespace code earlier on that line
  std::string text;
};

struct Stripped {
  std::string code;  // input with comments/literal contents blanked
  std::vector<Comment> comments;
};

Stripped Strip(std::string_view in) {
  Stripped out;
  out.code.assign(in.size(), ' ');
  int line = 1;
  bool code_on_line = false;
  std::size_t i = 0;
  const std::size_t n = in.size();
  auto put = [&](std::size_t at, char c) { out.code[at] = c; };

  while (i < n) {
    const char c = in[i];
    if (c == '\n') {
      put(i, '\n');
      ++line;
      code_on_line = false;
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && in[i + 1] == '/') {
      Comment cm;
      cm.line = line;
      cm.code_before = code_on_line;
      std::size_t j = i + 2;
      while (j < n && in[j] != '\n') ++j;
      cm.text.assign(in.substr(i + 2, j - i - 2));
      out.comments.push_back(std::move(cm));
      i = j;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && in[i + 1] == '*') {
      Comment cm;
      cm.line = line;
      cm.code_before = code_on_line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(in[j] == '*' && in[j + 1] == '/')) {
        if (in[j] == '\n') {
          put(j, '\n');
          ++line;
        }
        ++j;
      }
      cm.text.assign(in.substr(i + 2, j - (i + 2)));
      out.comments.push_back(std::move(cm));
      i = (j + 1 < n) ? j + 2 : n;
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && in[i + 1] == '"' &&
        (i == 0 || !IsIdentChar(in[i - 1]))) {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && in[j] != '(') delim.push_back(in[j++]);
      const std::string close = ")" + delim + "\"";
      const std::size_t end = in.find(close, j);
      const std::size_t stop = end == std::string_view::npos
                                   ? n
                                   : end + close.size();
      for (std::size_t k = i; k < stop; ++k) {
        if (in[k] == '\n') {
          put(k, '\n');
          ++line;
        }
      }
      code_on_line = true;
      i = stop;
      continue;
    }
    // Ordinary string literal.
    if (c == '"') {
      put(i, '"');
      std::size_t j = i + 1;
      while (j < n && in[j] != '"') {
        if (in[j] == '\\' && j + 1 < n) ++j;
        if (in[j] == '\n') {
          put(j, '\n');
          ++line;
        }
        ++j;
      }
      if (j < n) put(j, '"');
      code_on_line = true;
      i = j + 1;
      continue;
    }
    // Char literal (but not a digit separator like 1'000'000).
    if (c == '\'' && (i == 0 || !IsIdentChar(in[i - 1]))) {
      put(i, '\'');
      std::size_t j = i + 1;
      while (j < n && in[j] != '\'') {
        if (in[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      if (j < n) put(j, '\'');
      code_on_line = true;
      i = j + 1;
      continue;
    }
    put(i, c);
    if (!std::isspace(static_cast<unsigned char>(c))) code_on_line = true;
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Allow directives.

struct Directive {
  int comment_line = 0;
  int target_line = 0;
  std::string rule;
  bool has_reason = false;
  bool used = false;
  bool parse_error = false;
};

std::vector<Directive> ParseDirectives(const std::vector<Comment>& comments) {
  std::vector<Directive> out;
  for (const Comment& cm : comments) {
    // A directive must be the entire comment: `// szx-lint: allow(...) --
    // reason`.  Prose that merely mentions the syntax (docs, this file) is
    // ignored because the trimmed text does not start with the marker or
    // lacks an allow clause.
    std::string_view t(cm.text);
    const std::size_t first = t.find_first_not_of(" \t");
    if (first == std::string_view::npos) continue;
    t.remove_prefix(first);
    constexpr std::string_view kMarker = "szx-lint:";
    if (t.substr(0, kMarker.size()) != kMarker) continue;
    const std::string_view rest = t.substr(kMarker.size());
    if (rest.find("allow") == std::string_view::npos) continue;
    Directive d;
    d.comment_line = cm.line;
    d.target_line = cm.code_before ? cm.line : cm.line + 1;
    const std::size_t open = rest.find("allow(");
    const std::size_t close = rest.find(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close <= open + 6) {
      d.parse_error = true;
      out.push_back(std::move(d));
      continue;
    }
    std::string rule(rest.substr(open + 6, close - (open + 6)));
    // Trim whitespace around the rule name.
    while (!rule.empty() && std::isspace(static_cast<unsigned char>(rule.front())))
      rule.erase(rule.begin());
    while (!rule.empty() && std::isspace(static_cast<unsigned char>(rule.back())))
      rule.pop_back();
    d.rule = std::move(rule);
    const std::size_t dash = rest.find("--", close);
    if (dash != std::string_view::npos) {
      const std::string_view reason = rest.substr(dash + 2);
      d.has_reason = reason.find_first_not_of(" \t") != std::string_view::npos;
    }
    out.push_back(std::move(d));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Justification comments.  Every std::memory_order site must carry an
// `szx-mo:` one and every ByteBuffer grow-without-value site an
// `szx-overwrite:` one (trailing on its statement, or on the comment
// line(s) directly above); the text is the argument reviewers audit: the
// happens-before edge, or what writes every byte.  Target-line resolution
// mirrors allow directives.

struct Justification {
  int comment_line = 0;
  int target_line = 0;
  bool has_text = false;
  bool used = false;
};

std::vector<Justification> ParseJustifications(
    const std::vector<Comment>& comments, std::string_view marker) {
  std::vector<Justification> out;
  for (const Comment& cm : comments) {
    std::string_view t(cm.text);
    const std::size_t first = t.find_first_not_of(" \t");
    if (first == std::string_view::npos) continue;
    t.remove_prefix(first);
    if (t.substr(0, marker.size()) != marker) continue;
    Justification j;
    j.comment_line = cm.line;
    j.target_line = cm.code_before ? cm.line : cm.line + 1;
    j.has_text = t.substr(marker.size()).find_first_not_of(" \t") !=
                 std::string_view::npos;
    out.push_back(j);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Hot-path marker: a file whose leading comments include `// szx-hot`
// opts into the allocation-free discipline (hot-alloc rule).

bool HasHotMarker(const std::vector<Comment>& comments) {
  for (const Comment& cm : comments) {
    std::string_view t(cm.text);
    const std::size_t first = t.find_first_not_of(" \t");
    if (first == std::string_view::npos) continue;
    t.remove_prefix(first);
    if (t.substr(0, 7) == "szx-hot") return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Scanning helpers over the stripped code.

std::vector<std::size_t> LineStarts(std::string_view code) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

int LineOf(std::size_t pos, const std::vector<std::size_t>& starts) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return static_cast<int>(it - starts.begin());
}

// Next occurrence of `needle` as a whole identifier, starting at `from`.
std::size_t FindToken(std::string_view code, std::string_view needle,
                      std::size_t from) {
  while (true) {
    const std::size_t at = code.find(needle, from);
    if (at == std::string_view::npos) return at;
    const bool left_ok = at == 0 || !IsIdentChar(code[at - 1]);
    const std::size_t end = at + needle.size();
    const bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    if (left_ok && right_ok) return at;
    from = at + 1;
  }
}

std::size_t SkipSpace(std::string_view code, std::size_t i) {
  while (i < code.size() &&
         std::isspace(static_cast<unsigned char>(code[i])))
    ++i;
  return i;
}

// Extracts the balanced-delimiter region starting at the opener at `open`
// (which must be '(', '[', '{', or '<').  Returns the contents, without the
// delimiters; empty optional-ish (npos semantics) on imbalance.
std::string_view Balanced(std::string_view code, std::size_t open,
                          std::size_t* end_out) {
  const char opener = code[open];
  const char closer = opener == '(' ? ')'
                      : opener == '[' ? ']'
                      : opener == '{' ? '}'
                                      : '>';
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == opener) ++depth;
    else if (code[i] == closer) {
      --depth;
      if (depth == 0) {
        if (end_out != nullptr) *end_out = i;
        return code.substr(open + 1, i - open - 1);
      }
    }
  }
  if (end_out != nullptr) *end_out = std::string_view::npos;
  return {};
}

bool ContainsHeaderField(std::string_view text) {
  return std::any_of(kHeaderFields.begin(), kHeaderFields.end(),
                     [&](std::string_view f) {
                       return FindToken(text, f, 0) != std::string_view::npos;
                     });
}

bool ContainsSizeHint(std::string_view text) {
  return std::any_of(kSizeHints.begin(), kSizeHints.end(),
                     [&](std::string_view h) {
                       return text.find(h) != std::string_view::npos;
                     });
}

struct Scan {
  std::string_view code;
  const std::vector<std::size_t>& lines;
  std::vector<Finding>& out;
  std::string_view path;

  void Add(std::size_t pos, std::string_view rule, std::string msg) {
    out.push_back(
        {std::string(path), LineOf(pos, lines), std::string(rule), std::move(msg)});
  }
};

void ScanMemcpy(Scan& s) {
  for (std::string_view fn : {"memcpy", "memmove"}) {
    for (std::size_t at = FindToken(s.code, fn, 0);
         at != std::string_view::npos;
         at = FindToken(s.code, fn, at + 1)) {
      const std::size_t after = SkipSpace(s.code, at + fn.size());
      if (after < s.code.size() && s.code[after] == '(') {
        s.Add(at, "raw-memcpy",
              std::string(fn) + " call; route stream bytes through "
                                "ByteCursor/ByteWriter instead");
      }
    }
  }
}

void ScanReinterpretCast(Scan& s) {
  for (std::size_t at = FindToken(s.code, "reinterpret_cast", 0);
       at != std::string_view::npos;
       at = FindToken(s.code, "reinterpret_cast", at + 1)) {
    s.Add(at, "reinterpret-cast",
          "reinterpret_cast; only the audited byte primitives may repun "
          "memory");
  }
}

void ScanPtrArith(Scan& s) {
  for (std::size_t at = s.code.find(".data()", 0);
       at != std::string_view::npos; at = s.code.find(".data()", at + 1)) {
    const std::size_t after = SkipSpace(s.code, at + 7);
    if (after < s.code.size() && s.code[after] == '+' &&
        !(after + 1 < s.code.size() && s.code[after + 1] == '+')) {
      s.Add(at, "ptr-arith",
            ".data() + offset arithmetic; use subspan or ByteCursor so the "
            "bound travels with the pointer");
    }
  }
}

void ScanUncheckedAlloc(Scan& s) {
  auto check_args = [&](std::size_t at, std::string_view args) {
    if (ContainsHeaderField(args) &&
        args.find("CheckedAlloc") == std::string_view::npos) {
      s.Add(at, "unchecked-alloc",
            "allocation sized by a stream header field; validate with "
            "ByteCursor::CheckedAlloc first");
    }
  };
  for (std::string_view call : {".resize", ".reserve"}) {
    for (std::size_t at = s.code.find(call, 0);
         at != std::string_view::npos; at = s.code.find(call, at + 1)) {
      const std::size_t open = SkipSpace(s.code, at + call.size());
      if (open >= s.code.size() || s.code[open] != '(') continue;
      check_args(at, Balanced(s.code, open, nullptr));
    }
  }
  // new T[expr]
  for (std::size_t at = FindToken(s.code, "new", 0);
       at != std::string_view::npos;
       at = FindToken(s.code, "new", at + 1)) {
    const std::size_t stop = s.code.find_first_of(";[", at);
    if (stop == std::string_view::npos || s.code[stop] != '[') continue;
    check_args(at, Balanced(s.code, stop, nullptr));
  }
  // std::vector<T> name(expr) / name{expr}
  for (std::size_t at = FindToken(s.code, "vector", 0);
       at != std::string_view::npos;
       at = FindToken(s.code, "vector", at + 1)) {
    std::size_t i = SkipSpace(s.code, at + 6);
    if (i >= s.code.size() || s.code[i] != '<') continue;
    std::size_t close_angle = std::string_view::npos;
    Balanced(s.code, i, &close_angle);
    if (close_angle == std::string_view::npos) continue;
    i = SkipSpace(s.code, close_angle + 1);
    const std::size_t ident_begin = i;
    while (i < s.code.size() && IsIdentChar(s.code[i])) ++i;
    if (i == ident_begin) continue;  // not a declaration
    i = SkipSpace(s.code, i);
    if (i >= s.code.size() || (s.code[i] != '(' && s.code[i] != '{')) continue;
    check_args(at, Balanced(s.code, i, nullptr));
  }
}

void ScanUncheckedNarrow(Scan& s) {
  for (std::size_t at = s.code.find("static_cast", 0);
       at != std::string_view::npos;
       at = s.code.find("static_cast", at + 1)) {
    std::size_t i = SkipSpace(s.code, at + 11);
    if (i >= s.code.size() || s.code[i] != '<') continue;
    std::size_t close_angle = std::string_view::npos;
    std::string type(Balanced(s.code, i, &close_angle));
    if (close_angle == std::string_view::npos) continue;
    // Normalize internal whitespace runs to single spaces.
    std::string norm;
    for (char c : type) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!norm.empty() && norm.back() != ' ') norm.push_back(' ');
      } else {
        norm.push_back(c);
      }
    }
    while (!norm.empty() && norm.back() == ' ') norm.pop_back();
    if (std::find(kNarrowTypes.begin(), kNarrowTypes.end(), norm) ==
        kNarrowTypes.end())
      continue;
    i = SkipSpace(s.code, close_angle + 1);
    if (i >= s.code.size() || s.code[i] != '(') continue;
    const std::string_view args = Balanced(s.code, i, nullptr);
    if (ContainsSizeHint(args) &&
        args.find("CheckedNarrow") == std::string_view::npos) {
      s.Add(at, "unchecked-narrow",
            "narrowing cast of a size-like value; use CheckedNarrow<" + norm +
                "> so truncation throws instead of wrapping");
    }
  }
}

// Flags every _mm* intrinsic whose name contains load/store/stream/gather:
// these move bytes through raw pointers with no bound attached (gathers
// through per-lane indices off a base pointer), so each use must carry an
// explained allow stating why the access stays in bounds
// (src/core/block_stats.cpp and src/core/kernels/kernels_avx2.cpp are the
// exemplars).
void ScanSimdMem(Scan& s) {
  for (std::size_t at = s.code.find("_mm", 0); at != std::string_view::npos;
       at = s.code.find("_mm", at + 1)) {
    if (at > 0 && IsIdentChar(s.code[at - 1])) continue;  // mid-identifier
    std::size_t end = at;
    while (end < s.code.size() && IsIdentChar(s.code[end])) ++end;
    const std::string_view name = s.code.substr(at, end - at);
    if (name.find("load") == std::string_view::npos &&
        name.find("store") == std::string_view::npos &&
        name.find("stream") == std::string_view::npos &&
        name.find("gather") == std::string_view::npos)
      continue;
    s.Add(at, "simd-mem",
          std::string(name) +
              "; raw SIMD memory access needs an allow explaining its "
              "bounds guarantee");
  }
}

// ---------------------------------------------------------------------------
// Lightweight scope/decl tracking for the concurrency rules.
//
// A full parse is out of scope for a lexical linter, but the concurrency
// rules need to know what kind of thing a receiver is: `m_.lock()` is a
// naked mutex lock while `weak.lock()` is a shared_ptr upgrade.  The
// tracker records declarations of the four kinds the rules care about
// (atomics, mutexes, RAII locks, condition variables) together with the
// brace scope they live in, so a later use site can resolve its receiver
// by name + position.  Receivers that never resolve are left alone --
// precision over recall, with the atomic-only method names (fetch_add,
// compare_exchange_*) as the recall backstop that needs no declaration.
// ByteBuffer declarations ride the same tracker for uninit-bytes.

enum class DeclKind { kAtomic, kMutex, kLock, kCondVar, kByteBuffer };

struct Decl {
  std::string name;
  DeclKind kind;
  std::size_t name_pos = 0;  // where the declared name appears
  std::size_t end = 0;       // end of the enclosing brace scope
  bool raw_condvar = false;  // std::condition_variable (not sync::CondVar)
};

struct TypePattern {
  std::string_view token;
  DeclKind kind;
  bool needs_template = false;  // '<' must follow (std::atomic<T>)
  bool raw_condvar = false;
};

constexpr std::array<TypePattern, 15> kTypePatterns = {{
    {"atomic", DeclKind::kAtomic, true, false},
    {"mutex", DeclKind::kMutex, false, false},
    {"timed_mutex", DeclKind::kMutex, false, false},
    {"recursive_mutex", DeclKind::kMutex, false, false},
    {"shared_mutex", DeclKind::kMutex, false, false},
    {"Mutex", DeclKind::kMutex, false, false},
    {"lock_guard", DeclKind::kLock, false, false},
    {"unique_lock", DeclKind::kLock, false, false},
    {"scoped_lock", DeclKind::kLock, false, false},
    {"shared_lock", DeclKind::kLock, false, false},
    {"MutexLock", DeclKind::kLock, false, false},
    {"condition_variable", DeclKind::kCondVar, false, true},
    {"condition_variable_any", DeclKind::kCondVar, false, true},
    {"CondVar", DeclKind::kCondVar, false, false},
    {"ByteBuffer", DeclKind::kByteBuffer, false, false},
}};

// Innermost enclosing '}' for each declaration, via one brace-matching pass.
std::vector<std::pair<std::size_t, std::size_t>> BracePairs(
    std::string_view code) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '{') {
      stack.push_back(i);
    } else if (code[i] == '}' && !stack.empty()) {
      pairs.emplace_back(stack.back(), i);
      stack.pop_back();
    }
  }
  return pairs;
}

// End of the scope of a parameter whose name ends just before `from`: the
// '}' closing the body after its parameter list, or the ';' ending a
// declaration that has no body.
std::size_t ParameterScopeEnd(
    std::string_view code, std::size_t from,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
  int depth = 0;
  std::size_t i = from;
  for (; i < code.size(); ++i) {
    if (code[i] == '(') ++depth;
    else if (code[i] == ')' && depth-- == 0) break;
  }
  const std::size_t body = code.find_first_of("{;", i);
  if (body == std::string_view::npos) return code.size();
  if (code[body] == ';') return body;
  for (const auto& [open, close] : pairs) {
    if (open == body) return close;
  }
  return code.size();
}

std::vector<Decl> CollectDecls(std::string_view code) {
  std::vector<Decl> decls;
  const auto pairs = BracePairs(code);
  for (const TypePattern& tp : kTypePatterns) {
    for (std::size_t at = FindToken(code, tp.token, 0);
         at != std::string_view::npos;
         at = FindToken(code, tp.token, at + 1)) {
      std::size_t i = at + tp.token.size();
      if (i < code.size() && code[i] == '<') {
        std::size_t close = std::string_view::npos;
        Balanced(code, i, &close);
        if (close == std::string_view::npos) continue;
        i = close + 1;
      } else if (tp.needs_template) {
        continue;  // bare `atomic` word, not a declaration
      }
      i = SkipSpace(code, i);
      if (i < code.size() && (code[i] == '&' || code[i] == '*')) {
        i = SkipSpace(code, i + 1);
      }
      const std::size_t name_begin = i;
      while (i < code.size() && IsIdentChar(code[i])) ++i;
      if (i == name_begin) continue;  // no declared name follows
      Decl d;
      d.name.assign(code.substr(name_begin, i - name_begin));
      d.kind = tp.kind;
      d.name_pos = name_begin;
      d.raw_condvar = tp.raw_condvar;
      d.end = code.size();
      const std::size_t after = SkipSpace(code, i);
      if (after < code.size() && (code[after] == ',' || code[after] == ')')) {
        // A parameter: its scope is the body after the parameter list (or
        // nothing, for a declaration without one), not the enclosing block.
        d.end = ParameterScopeEnd(code, after, pairs);
      } else {
        std::size_t best_open = 0;
        bool found = false;
        for (const auto& [open, close] : pairs) {
          if (open < name_begin && close > name_begin &&
              (!found || open > best_open)) {
            best_open = open;
            d.end = close;
            found = true;
          }
        }
      }
      decls.push_back(std::move(d));
    }
  }
  return decls;
}

// Innermost declaration of `name` whose scope covers `pos`, or nullptr.
const Decl* FindDecl(const std::vector<Decl>& decls, std::string_view name,
                     std::size_t pos) {
  const Decl* best = nullptr;
  for (const Decl& d : decls) {
    if (d.name == name && d.name_pos <= pos && pos < d.end &&
        (best == nullptr || d.name_pos > best->name_pos)) {
      best = &d;
    }
  }
  return best;
}

// Receiver of a member call: the identifier directly before the '.' or
// "->" at `dot`.  Complex receivers (call chains, array elements) return
// empty -- the caller treats them as unresolvable.
std::string_view ReceiverBefore(std::string_view code, std::size_t dot) {
  std::size_t i = dot;
  while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
  const std::size_t end = i;
  while (i > 0 && IsIdentChar(code[i - 1])) --i;
  return code.substr(i, end - i);
}

// True when `pos` is preceded by '.' or '->' (receiver call syntax);
// `dot_out` gets the position of the '.' / '>' for receiver extraction.
bool IsMemberCall(std::string_view code, std::size_t pos,
                  std::size_t* dot_out) {
  std::size_t i = pos;
  while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1]))) --i;
  if (i == 0) return false;
  if (code[i - 1] == '.') {
    *dot_out = i - 1;
    return true;
  }
  if (code[i - 1] == '>' && i >= 2 && code[i - 2] == '-') {
    *dot_out = i - 2;
    return true;
  }
  return false;
}

// `memory_order` as the *prefix* of an identifier (memory_order_relaxed,
// memory_order::acquire): left boundary must be non-identifier, the right
// side is free.
bool ContainsMemoryOrder(std::string_view text) {
  for (std::size_t at = text.find("memory_order"); at != std::string_view::npos;
       at = text.find("memory_order", at + 1)) {
    if (at == 0 || !IsIdentChar(text[at - 1])) return true;
  }
  return false;
}

// Line on which the statement containing `pos` starts: the first code
// after the previous ';', '{', or '}'.  szx-mo justifications attach to
// either the token's own line or this line, so one comment covers a
// wrapped multi-line statement (compare_exchange with two orders).
int StatementStartLine(std::string_view code, std::size_t pos,
                       const std::vector<std::size_t>& lines) {
  std::size_t i = pos;
  while (i > 0) {
    const char c = code[i - 1];
    if (c == ';' || c == '{' || c == '}') break;
    --i;
  }
  i = SkipSpace(code, i);
  if (i > pos) i = pos;
  return LineOf(i, lines);
}

// True when a justification with text targets the line of `pos` or the
// first line of its statement; marks every such justification used.
bool Justify(const Scan& s, std::size_t pos,
             std::vector<Justification>& justifications) {
  const int token_line = LineOf(pos, s.lines);
  const int stmt_line = StatementStartLine(s.code, pos, s.lines);
  bool justified = false;
  for (Justification& j : justifications) {
    if (!j.has_text) continue;
    if (j.target_line == token_line || j.target_line == stmt_line) {
      j.used = true;
      justified = true;
    }
  }
  return justified;
}

// Rule: memory-order.  Every memory_order token needs an szx-mo
// justification targeting its line or its statement's first line.
void ScanMemoryOrder(Scan& s, std::vector<Justification>& mo) {
  for (std::size_t at = s.code.find("memory_order");
       at != std::string_view::npos;
       at = s.code.find("memory_order", at + 1)) {
    if (at > 0 && IsIdentChar(s.code[at - 1])) continue;
    if (!Justify(s, at, mo)) {
      s.Add(at, "memory-order",
            "std::memory_order use without an adjacent `// szx-mo:` "
            "justification; write down the happens-before edge this "
            "order provides (or why a weaker one suffices)");
    }
  }
}

// Rule: implicit-seq-cst.  Atomic operations that spell no memory order
// default to seq_cst -- usually unintentional on a hot path, and always
// unreviewed.  Method names that exist only on std::atomic are flagged on
// any receiver; ambiguous names (load/store/exchange) only on receivers
// declared atomic; ++/--/+=/= on declared atomics are the operator forms.
constexpr std::array<std::string_view, 7> kAtomicOnlyOps = {
    "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or",  "fetch_xor", "compare_exchange_strong",
    "compare_exchange_weak"};
constexpr std::array<std::string_view, 3> kAtomicAmbiguousOps = {
    "load", "store", "exchange"};

void ScanImplicitSeqCst(Scan& s, const std::vector<Decl>& decls) {
  auto check_call = [&](std::string_view op, bool need_decl) {
    for (std::size_t at = FindToken(s.code, op, 0);
         at != std::string_view::npos;
         at = FindToken(s.code, op, at + 1)) {
      std::size_t dot = 0;
      if (!IsMemberCall(s.code, at, &dot)) continue;
      const std::size_t open = SkipSpace(s.code, at + op.size());
      if (open >= s.code.size() || s.code[open] != '(') continue;
      if (need_decl) {
        const std::string_view recv = ReceiverBefore(s.code, dot);
        const Decl* d = recv.empty() ? nullptr : FindDecl(decls, recv, at);
        if (d == nullptr || d->kind != DeclKind::kAtomic) continue;
      }
      if (ContainsMemoryOrder(Balanced(s.code, open, nullptr))) continue;
      s.Add(at, "implicit-seq-cst",
            std::string(op) +
                " with no explicit memory order (implicit seq_cst); spell "
                "the order and justify it with szx-mo");
    }
  };
  for (std::string_view op : kAtomicOnlyOps) check_call(op, false);
  for (std::string_view op : kAtomicAmbiguousOps) check_call(op, true);

  for (const Decl& d : decls) {
    if (d.kind != DeclKind::kAtomic) continue;
    for (std::size_t at = FindToken(s.code, d.name, d.name_pos + 1);
         at != std::string_view::npos && at < d.end;
         at = FindToken(s.code, d.name, at + 1)) {
      if (at == d.name_pos) continue;
      // Prefix ++x / --x.
      std::size_t i = at;
      while (i > 0 && std::isspace(static_cast<unsigned char>(s.code[i - 1])))
        --i;
      const bool pre = i >= 2 && ((s.code[i - 1] == '+' && s.code[i - 2] == '+') ||
                                  (s.code[i - 1] == '-' && s.code[i - 2] == '-'));
      // Postfix / compound / plain assignment.
      std::size_t j = SkipSpace(s.code, at + d.name.size());
      bool post = false;
      if (j + 1 < s.code.size()) {
        const char a = s.code[j];
        const char b = s.code[j + 1];
        post = (a == '+' && b == '+') || (a == '-' && b == '-') ||
               ((a == '+' || a == '-' || a == '|' || a == '&' || a == '^') &&
                b == '=') ||
               (a == '=' && b != '=');
      }
      if (pre || post) {
        s.Add(at, "implicit-seq-cst",
              "operator on std::atomic '" + d.name +
                  "' is an implicit seq_cst RMW; use an explicit "
                  "fetch_/store call with a justified order");
      }
    }
  }
}

// Rule: naked-lock.  Direct lock()/unlock() on a mutex-typed receiver
// bypasses RAII (leaks the lock on exception) and the thread-safety
// analysis (sync::MutexLock carries the SZX_ACQUIRE/RELEASE contract).
void ScanNakedLock(Scan& s, const std::vector<Decl>& decls) {
  for (std::string_view op : {"lock", "unlock", "try_lock"}) {
    for (std::size_t at = FindToken(s.code, op, 0);
         at != std::string_view::npos;
         at = FindToken(s.code, op, at + 1)) {
      std::size_t dot = 0;
      if (!IsMemberCall(s.code, at, &dot)) continue;
      const std::size_t open = SkipSpace(s.code, at + op.size());
      if (open >= s.code.size() || s.code[open] != '(') continue;
      const std::string_view recv = ReceiverBefore(s.code, dot);
      const Decl* d = recv.empty() ? nullptr : FindDecl(decls, recv, at);
      if (d == nullptr || d->kind != DeclKind::kMutex) continue;
      s.Add(at, "naked-lock",
            "." + std::string(op) + "() on mutex '" + std::string(recv) +
                "'; hold it through sync::MutexLock so release is RAII "
                "and the acquisition is visible to -Wthread-safety");
    }
  }
}

// Rule: condvar-wait.  A wait must pass the held RAII lock so the
// atomic release-and-reacquire contract is explicit (and analyzable);
// raw std::condition_variable declarations bypass the annotated wrapper.
void ScanCondvarWait(Scan& s, const std::vector<Decl>& decls) {
  for (const Decl& d : decls) {
    if (d.kind == DeclKind::kCondVar && d.raw_condvar) {
      s.Add(d.name_pos, "condvar-wait",
            "raw std::condition_variable '" + d.name +
                "'; declare sync::CondVar so waits type-check against "
                "the annotated MutexLock");
    }
  }
  for (std::string_view op : {"wait", "Wait", "wait_for", "wait_until"}) {
    for (std::size_t at = FindToken(s.code, op, 0);
         at != std::string_view::npos;
         at = FindToken(s.code, op, at + 1)) {
      std::size_t dot = 0;
      if (!IsMemberCall(s.code, at, &dot)) continue;
      const std::size_t open = SkipSpace(s.code, at + op.size());
      if (open >= s.code.size() || s.code[open] != '(') continue;
      const std::string_view recv = ReceiverBefore(s.code, dot);
      const Decl* d = recv.empty() ? nullptr : FindDecl(decls, recv, at);
      if (d == nullptr || d->kind != DeclKind::kCondVar) continue;
      std::string_view args = Balanced(s.code, open, nullptr);
      const std::size_t comma = args.find(',');
      std::string_view first =
          comma == std::string_view::npos ? args : args.substr(0, comma);
      while (!first.empty() &&
             std::isspace(static_cast<unsigned char>(first.front())))
        first.remove_prefix(1);
      while (!first.empty() &&
             std::isspace(static_cast<unsigned char>(first.back())))
        first.remove_suffix(1);
      const bool ident_only =
          !first.empty() &&
          std::all_of(first.begin(), first.end(),
                      [](char c) { return IsIdentChar(c); });
      const Decl* lock =
          ident_only ? FindDecl(decls, first, at) : nullptr;
      if (lock != nullptr && lock->kind == DeclKind::kLock) continue;
      s.Add(at, "condvar-wait",
            "condition-variable wait whose first argument is not a held "
            "RAII lock declared in scope; pass the sync::MutexLock "
            "guarding the predicate");
    }
  }
}

// Rule: uninit-bytes.  ByteBuffer's allocator default-initialises, so a
// ByteBuffer grown without a value holds indeterminate bytes until
// something writes them.  Such a site -- `ByteBuffer name(n)`, a
// `ByteBuffer(n)` temporary, or a one-argument `.resize(n)` on a receiver
// declared ByteBuffer -- must say what writes every byte in an adjacent
// `// szx-overwrite:` comment, or pass a fill value.  Receivers that do
// not resolve are left alone, as are argument lists that read as
// parameter declarations (`ByteBuffer Wrap(const ByteBuffer& p)`) and
// single-argument copies or moves of a declared ByteBuffer.

// A comma outside any nested (), [] or {} in an argument list.
bool HasTopLevelComma(std::string_view args) {
  int depth = 0;
  for (const char c : args) {
    if (c == '(' || c == '[' || c == '{') ++depth;
    else if (c == ')' || c == ']' || c == '}') --depth;
    else if (c == ',' && depth == 0) return true;
  }
  return false;
}

// Two identifiers separated only by whitespace, '&' or '*', the first
// possibly closing a template (`std::size_t n`, `const ByteBuffer& b`,
// `std::span<const float> v`): a parameter declaration, not an expression.
bool LooksLikeParameters(std::string_view args) {
  bool after_ident = false;
  for (std::size_t i = 0; i < args.size();) {
    const char c = args[i];
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      if (after_ident) return true;
      while (i < args.size() && (IsIdentChar(args[i]) || args[i] == ':')) ++i;
      after_ident = true;
    } else if (std::isspace(static_cast<unsigned char>(c)) != 0 ||
               (after_ident && (c == '&' || c == '*'))) {
      ++i;
    } else if (c == '>') {
      after_ident = true;
      ++i;
    } else {
      after_ident = false;
      ++i;
    }
  }
  return false;
}

void ScanUninitBytes(Scan& s, const std::vector<Decl>& decls,
                     std::vector<Justification>& overwrite) {
  auto check = [&](std::size_t at, std::string_view what) {
    if (Justify(s, at, overwrite)) return;
    s.Add(at, "uninit-bytes",
          std::string(what) +
              " leaves its new bytes unwritten; say what writes every "
              "byte in an `// szx-overwrite:` comment, or pass "
              "std::byte{0}");
  };
  for (std::size_t at = FindToken(s.code, "resize", 0);
       at != std::string_view::npos;
       at = FindToken(s.code, "resize", at + 1)) {
    std::size_t dot = 0;
    if (!IsMemberCall(s.code, at, &dot)) continue;
    const std::size_t open = SkipSpace(s.code, at + 6);
    if (open >= s.code.size() || s.code[open] != '(') continue;
    if (HasTopLevelComma(Balanced(s.code, open, nullptr))) continue;
    const std::string_view recv = ReceiverBefore(s.code, dot);
    const Decl* d = recv.empty() ? nullptr : FindDecl(decls, recv, at);
    if (d == nullptr || d->kind != DeclKind::kByteBuffer) continue;
    check(at, "ByteBuffer '" + std::string(recv) + "'.resize(n)");
  }
  for (std::size_t at = FindToken(s.code, "ByteBuffer", 0);
       at != std::string_view::npos;
       at = FindToken(s.code, "ByteBuffer", at + 1)) {
    std::size_t i = SkipSpace(s.code, at + 10);
    while (i < s.code.size() && IsIdentChar(s.code[i])) ++i;  // the name
    i = SkipSpace(s.code, i);
    if (i >= s.code.size() || s.code[i] != '(') continue;
    std::string_view args = Balanced(s.code, i, nullptr);
    const std::size_t first = args.find_first_not_of(" \t\r\n");
    if (first == std::string_view::npos) continue;  // empty: no size
    args.remove_prefix(first);
    while (std::isspace(static_cast<unsigned char>(args.back())) != 0)
      args.remove_suffix(1);
    if (HasTopLevelComma(args) || LooksLikeParameters(args)) continue;
    if (args.substr(0, 10) == "std::move(") continue;
    const Decl* src = FindDecl(decls, args, at);
    if (src != nullptr && src->kind == DeclKind::kByteBuffer) continue;
    check(at, "sized ByteBuffer constructor");
  }
}

// Rule: hot-alloc (only in files marked `// szx-hot`).  The kernels and
// dispatch layer must stay allocation-free: steady-state throughput is
// the paper's headline number, and one stray push_back turns into a
// realloc storm across millions of blocks.
constexpr std::array<std::string_view, 5> kAllocCalls = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup"};
constexpr std::array<std::string_view, 8> kReallocMethods = {
    "push_back", "emplace_back", "resize", "reserve",
    "insert",    "emplace",      "append", "assign"};

void ScanHotAlloc(Scan& s) {
  for (std::size_t at = FindToken(s.code, "new", 0);
       at != std::string_view::npos;
       at = FindToken(s.code, "new", at + 1)) {
    const std::size_t i = SkipSpace(s.code, at + 3);
    if (i >= s.code.size()) continue;
    if (!IsIdentChar(s.code[i]) && s.code[i] != '[') continue;
    s.Add(at, "hot-alloc",
          "operator new in an szx-hot file; hot paths allocate through "
          "ScratchArena (exec::Executor::WorkerScratch) or preallocated "
          "buffers");
  }
  for (std::string_view fn : kAllocCalls) {
    for (std::size_t at = FindToken(s.code, fn, 0);
         at != std::string_view::npos;
         at = FindToken(s.code, fn, at + 1)) {
      const std::size_t open = SkipSpace(s.code, at + fn.size());
      if (open >= s.code.size() || s.code[open] != '(') continue;
      s.Add(at, "hot-alloc",
            std::string(fn) + " in an szx-hot file; use ScratchArena");
    }
  }
  for (std::string_view m : kReallocMethods) {
    for (std::size_t at = FindToken(s.code, m, 0);
         at != std::string_view::npos;
         at = FindToken(s.code, m, at + 1)) {
      std::size_t dot = 0;
      if (!IsMemberCall(s.code, at, &dot)) continue;
      const std::size_t open = SkipSpace(s.code, at + m.size());
      if (open >= s.code.size() || s.code[open] != '(') continue;
      s.Add(at, "hot-alloc",
            "." + std::string(m) +
                " may reallocate in an szx-hot file; size buffers up "
                "front or use ScratchArena");
    }
  }
}

// Rule: missing-nodiscard (headers only).  Status-returning declarations
// whose result silently vanishing is a latent bug: report types, and
// bool-returning functions named like checks.
constexpr std::array<std::string_view, 3> kStatusTypes = {
    "ValidationReport", "DamageReport", "SalvageResult"};
constexpr std::array<std::string_view, 9> kBoolCheckPrefixes = {
    "Next", "Try", "Validate", "Verify", "Check",
    "Read", "Peek", "Parse",   "Done"};

void ScanMissingNodiscard(Scan& s) {
  auto segment_has_nodiscard = [&](std::size_t at) {
    std::size_t i = at;
    while (i > 0) {
      const char c = s.code[i - 1];
      if (c == ';' || c == '{' || c == '}') break;
      --i;
    }
    return s.code.substr(i, at - i).find("nodiscard") !=
           std::string_view::npos;
  };
  auto flag = [&](std::size_t at, std::string_view what) {
    s.Add(at, "missing-nodiscard",
          std::string(what) +
              " without [[nodiscard]]; a silently dropped status/report "
              "is a latent bug");
  };
  for (std::string_view ty : kStatusTypes) {
    for (std::size_t at = FindToken(s.code, ty, 0);
         at != std::string_view::npos;
         at = FindToken(s.code, ty, at + 1)) {
      std::size_t i = at + ty.size();
      if (i < s.code.size() && s.code[i] == '<') {
        std::size_t close = std::string_view::npos;
        Balanced(s.code, i, &close);
        if (close == std::string_view::npos) continue;
        i = close + 1;
      }
      i = SkipSpace(s.code, i);
      const std::size_t name_begin = i;
      while (i < s.code.size() && IsIdentChar(s.code[i])) ++i;
      if (i == name_begin) continue;
      i = SkipSpace(s.code, i);
      if (i >= s.code.size() || s.code[i] != '(') continue;
      if (segment_has_nodiscard(at)) continue;
      flag(at, "declaration returning " + std::string(ty));
    }
  }
  for (std::size_t at = FindToken(s.code, "bool", 0);
       at != std::string_view::npos;
       at = FindToken(s.code, "bool", at + 1)) {
    std::size_t i = SkipSpace(s.code, at + 4);
    const std::size_t name_begin = i;
    while (i < s.code.size() && IsIdentChar(s.code[i])) ++i;
    if (i == name_begin) continue;
    const std::string_view name = s.code.substr(name_begin, i - name_begin);
    bool check_like = false;
    for (std::string_view p : kBoolCheckPrefixes) {
      if (name.size() < p.size() || name.substr(0, p.size()) != p) continue;
      const char next = name.size() == p.size() ? '\0' : name[p.size()];
      if (next == '\0' ||
          std::isupper(static_cast<unsigned char>(next)) != 0) {
        check_like = true;
        break;
      }
    }
    if (!check_like) continue;
    i = SkipSpace(s.code, i);
    if (i >= s.code.size() || s.code[i] != '(') continue;
    if (segment_has_nodiscard(at)) continue;
    flag(at, "bool check '" + std::string(name) + "'");
  }
}

}  // namespace

const std::vector<RuleInfo>& Rules() { return kRules; }

bool IsAllowlisted(std::string_view path) {
  std::string p(path);
  std::replace(p.begin(), p.end(), '\\', '/');
  for (const std::string_view base : kAllowlist) {
    if (p == base) return true;
    if (p.size() > base.size() &&
        p.compare(p.size() - base.size(), base.size(), base) == 0 &&
        p[p.size() - base.size() - 1] == '/')
      return true;
  }
  return false;
}

bool IsStrictZone(std::string_view path) {
  std::string p(path);
  std::replace(p.begin(), p.end(), '\\', '/');
  // Salvage parses adversarially damaged bytes; serve terminates untrusted
  // network input.  Both must stay free of rule suppressions.
  constexpr std::string_view kZones[] = {"src/resilience/", "src/serve/"};
  constexpr std::string_view kBares[] = {"resilience/", "serve/"};
  for (const std::string_view zone : kZones) {
    if (p.find(zone) != std::string::npos) return true;
  }
  for (const std::string_view bare : kBares) {
    if (p.compare(0, bare.size(), bare) == 0) return true;
  }
  return false;
}

std::vector<Finding> LintText(std::string_view path, std::string_view text) {
  std::vector<Finding> findings;
  // The strict zone parses adversarially damaged bytes; no file there may
  // ride the audited-primitives allowlist, even if named like one.
  const bool strict = IsStrictZone(path);
  if (!strict && IsAllowlisted(path)) return findings;

  const Stripped st = Strip(text);
  const std::vector<std::size_t> lines = LineStarts(st.code);
  std::vector<Directive> directives = ParseDirectives(st.comments);
  std::vector<Justification> mo_comments =
      ParseJustifications(st.comments, "szx-mo:");
  std::vector<Justification> overwrite_comments =
      ParseJustifications(st.comments, "szx-overwrite:");

  // A standalone directive targets the next line that has code, so several
  // directives may stack above one statement.
  auto line_has_code = [&](int line) {
    if (line < 1 || line > static_cast<int>(lines.size())) return false;
    const std::size_t begin = lines[line - 1];
    const std::size_t end = line < static_cast<int>(lines.size())
                                ? lines[line]
                                : st.code.size();
    return st.code.find_first_not_of(" \t\r\n", begin) < end;
  };
  const int last_line = static_cast<int>(lines.size());
  for (Directive& d : directives) {
    if (d.target_line == d.comment_line) continue;  // trailing directive
    int t = d.comment_line + 1;
    while (t <= last_line && !line_has_code(t)) ++t;
    d.target_line = t;
  }
  // Justifications stack the same way: a block of justification lines
  // above a statement targets its first code line.
  for (std::vector<Justification>* js : {&mo_comments, &overwrite_comments}) {
    for (Justification& j : *js) {
      if (j.target_line == j.comment_line) continue;  // trailing comment
      int t = j.comment_line + 1;
      while (t <= last_line && !line_has_code(t)) ++t;
      j.target_line = t;
    }
  }

  const std::vector<Decl> decls = CollectDecls(st.code);

  std::vector<Finding> raw;
  Scan scan{st.code, lines, raw, path};
  ScanMemcpy(scan);
  ScanReinterpretCast(scan);
  ScanPtrArith(scan);
  ScanUncheckedAlloc(scan);
  ScanUncheckedNarrow(scan);
  ScanSimdMem(scan);
  ScanMemoryOrder(scan, mo_comments);
  ScanImplicitSeqCst(scan, decls);
  ScanNakedLock(scan, decls);
  ScanCondvarWait(scan, decls);
  ScanUninitBytes(scan, decls, overwrite_comments);
  if (HasHotMarker(st.comments)) ScanHotAlloc(scan);
  {
    // Headers own the API surface; an out-of-line definition repeating the
    // attribute is noise, so the nodiscard rule only audits declarations.
    std::string p(path);
    if (p.size() >= 4 && (p.compare(p.size() - 4, 4, ".hpp") == 0 ||
                          p.compare(p.size() - 4, 4, ".hxx") == 0)) {
      ScanMissingNodiscard(scan);
    } else if (p.size() >= 2 && p.compare(p.size() - 2, 2, ".h") == 0) {
      ScanMissingNodiscard(scan);
    }
  }

  // Apply directives: a finding is suppressed by a matching allow on its
  // line (or on the directly preceding comment-only line).
  for (Finding& f : raw) {
    bool suppressed = false;
    for (Directive& d : directives) {
      if (!strict && !d.parse_error && d.rule == f.rule &&
          d.target_line == f.line) {
        d.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) findings.push_back(std::move(f));
  }

  // Directive hygiene.
  for (const Directive& d : directives) {
    if (strict) {
      // Directives are refused wholesale here, so the underlying finding
      // also surfaces (it was never marked used above).
      findings.push_back({std::string(path), d.comment_line, "strict-zone",
                          "allow directives are refused in strict zones "
                          "(src/resilience/, src/serve/); fix the code "
                          "instead of suppressing the rule"});
      continue;
    }
    if (d.parse_error) {
      findings.push_back({std::string(path), d.comment_line, "unknown-rule",
                          "malformed szx-lint directive; expected "
                          "`szx-lint: allow(<rule>) -- <reason>`"});
      continue;
    }
    if (!IsLintableRule(d.rule)) {
      findings.push_back({std::string(path), d.comment_line, "unknown-rule",
                          "allow names unknown rule '" + d.rule + "'"});
      continue;
    }
    if (!d.has_reason) {
      findings.push_back({std::string(path), d.comment_line,
                          "unexplained-allow",
                          "allow(" + d.rule +
                              ") has no `-- reason`; every suppression "
                              "must say why it is safe"});
    }
    if (!d.used) {
      findings.push_back({std::string(path), d.comment_line, "unused-allow",
                          "allow(" + d.rule +
                              ") suppresses nothing; delete the stale "
                              "directive"});
    }
  }

  // szx-mo hygiene: a justification must say something and must attach to
  // a real memory_order site, so stale comments rot loudly like stale
  // allows do.  (Justifications are not suppressions -- they are honored
  // in the strict zone too.)
  for (const Justification& mc : mo_comments) {
    if (!mc.has_text) {
      findings.push_back({std::string(path), mc.comment_line, "stale-mo",
                          "empty szx-mo justification; write the "
                          "happens-before argument"});
    } else if (!mc.used) {
      findings.push_back({std::string(path), mc.comment_line, "stale-mo",
                          "szx-mo comment attaches to no memory_order "
                          "site; delete or move it"});
    }
  }
  // szx-overwrite hygiene, by the same argument.
  for (const Justification& j : overwrite_comments) {
    if (!j.has_text) {
      findings.push_back({std::string(path), j.comment_line, "uninit-bytes",
                          "empty szx-overwrite reason; say what writes "
                          "every byte"});
    } else if (!j.used) {
      findings.push_back({std::string(path), j.comment_line, "uninit-bytes",
                          "szx-overwrite comment attaches to no ByteBuffer "
                          "grow site; delete or move it"});
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> LintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("szx-lint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return LintText(path, ss.str());
}

std::string FormatFinding(const Finding& f) {
  std::ostringstream ss;
  ss << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message;
  return ss.str();
}

namespace {

void AppendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  out += JsonEscape(s);
  out.push_back('"');
}

}  // namespace

std::string RenderJson(const std::vector<Finding>& findings) {
  std::string out = "{\"version\": 1, \"findings\": [";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) out += ", ";
    first = false;
    out += "{\"file\": ";
    AppendJsonString(out, f.file);
    out += ", \"line\": " + std::to_string(f.line);
    out += ", \"rule\": ";
    AppendJsonString(out, f.rule);
    out += ", \"message\": ";
    AppendJsonString(out, f.message);
    out += "}";
  }
  out += "], \"count\": " + std::to_string(findings.size()) + "}\n";
  return out;
}

}  // namespace szx::lint
