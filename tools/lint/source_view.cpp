#include "source_view.hpp"

#include <cctype>
#include <cstring>
#include <sstream>

namespace snnsec::lint {

SourceView strip(const std::string& content) {
  SourceView v;
  std::string code_line, comment_line, raw_line;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State st = State::kCode;
  std::string raw_delim;  // for raw string literals: ")<delim>"
  const std::size_t n = content.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      v.code.push_back(code_line);
      v.comments.push_back(comment_line);
      v.raw.push_back(raw_line);
      code_line.clear();
      comment_line.clear();
      raw_line.clear();
      if (st == State::kLine) st = State::kCode;
      continue;
    }
    raw_line += c;
    switch (st) {
      case State::kCode:
        if (c == '/' && next == '/') {
          st = State::kLine;
          code_line += "  ";
          raw_line += next;
          ++i;
        } else if (c == '/' && next == '*') {
          st = State::kBlock;
          code_line += "  ";
          raw_line += next;
          ++i;
        } else if (c == '"') {
          // Raw string literal? Look back for R / uR / u8R / LR prefix.
          bool raw = false;
          if (!code_line.empty() && code_line.back() == 'R') {
            const std::size_t len = code_line.size();
            const bool prefixed =
                len < 2 || !(std::isalnum(static_cast<unsigned char>(
                                 code_line[len - 2])) ||
                             code_line[len - 2] == '_');
            raw = prefixed || (len >= 2 && (code_line[len - 2] == 'u' ||
                                            code_line[len - 2] == 'U' ||
                                            code_line[len - 2] == 'L' ||
                                            code_line[len - 2] == '8'));
          }
          if (raw) {
            raw_delim = ")";
            std::size_t j = i + 1;
            while (j < n && content[j] != '(') raw_delim += content[j++];
            raw_delim += '"';
            st = State::kRaw;
          } else {
            st = State::kString;
          }
          code_line += '"';
        } else if (c == '\'') {
          st = State::kChar;
          code_line += '\'';
        } else {
          code_line += c;
        }
        break;
      case State::kLine:
        comment_line += c;
        code_line += ' ';
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          st = State::kCode;
          code_line += "  ";
          raw_line += next;
          ++i;
        } else {
          comment_line += c;
          code_line += ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          code_line += "  ";
          if (next != '\0' && next != '\n') raw_line += next;
          ++i;
          if (next == '\0') break;
        } else if (c == '"') {
          st = State::kCode;
          code_line += '"';
        } else {
          code_line += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          code_line += "  ";
          if (next != '\0' && next != '\n') raw_line += next;
          ++i;
          if (next == '\0') break;
        } else if (c == '\'') {
          st = State::kCode;
          code_line += '\'';
        } else {
          code_line += ' ';
        }
        break;
      case State::kRaw:
        if (c == ')' && content.compare(i, raw_delim.size(), raw_delim) == 0) {
          // Blank all but the newlines inside the terminator span.
          raw_line += content.substr(i + 1, raw_delim.size() - 1);
          i += raw_delim.size() - 1;
          st = State::kCode;
          code_line += '"';
        } else {
          code_line += ' ';
        }
        break;
    }
  }
  v.code.push_back(code_line);
  v.comments.push_back(comment_line);
  v.raw.push_back(raw_line);
  return v;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::size_t find_word(std::string_view s, std::string_view word,
                      std::size_t from) {
  while (true) {
    const std::size_t p = s.find(word, from);
    if (p == std::string_view::npos) return p;
    const bool left_ok = p == 0 || !ident_char(s[p - 1]);
    const std::size_t after = p + word.size();
    const bool right_ok = after >= s.size() || !ident_char(s[after]);
    if (left_ok && right_ok) return p;
    from = p + 1;
  }
}

bool contains_word(std::string_view s, std::string_view word) {
  return find_word(s, word) != std::string_view::npos;
}

std::vector<Suppression> parse_suppressions(const std::string& comment) {
  std::vector<Suppression> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t at = comment.find("NOLINT", pos);
    if (at == std::string::npos) break;
    std::size_t cur = at + 6;
    Suppression s;
    if (comment.compare(cur, 8, "NEXTLINE") == 0) {
      s.next_line = true;
      cur += 8;
    }
    if (cur >= comment.size() || comment[cur] != '(') {
      pos = cur;  // bare NOLINT (e.g. for clang-tidy) — not ours
      continue;
    }
    const std::size_t close = comment.find(')', cur);
    if (close == std::string::npos) break;
    std::stringstream list(comment.substr(cur + 1, close - cur - 1));
    std::string item;
    bool ours = false;
    while (std::getline(list, item, ',')) {
      const std::size_t b = item.find_first_not_of(" \t");
      const std::size_t e = item.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      item = item.substr(b, e - b + 1);
      if (item.rfind("snnsec-", 0) == 0) {
        s.rules.push_back(item);
        ours = true;
      }
    }
    if (ours) {
      // Justification: "): <non-empty text>".
      std::size_t j = close + 1;
      if (j < comment.size() && comment[j] == ':') {
        ++j;
        while (j < comment.size() &&
               std::isspace(static_cast<unsigned char>(comment[j])))
          ++j;
        s.justified = j < comment.size();
      }
      out.push_back(std::move(s));
    }
    pos = close + 1;
  }
  return out;
}

bool suppressed_at(const SourceView& view, int line, const std::string& rule) {
  const auto applies = [&](const std::string& comment, bool want_next) {
    for (const Suppression& s : parse_suppressions(comment)) {
      if (s.next_line != want_next || !s.justified) continue;
      for (const std::string& r : s.rules)
        if (r == rule) return true;
    }
    return false;
  };
  const std::size_t i = static_cast<std::size_t>(line - 1);
  if (i < view.comments.size() && applies(view.comments[i], false))
    return true;
  return i >= 1 && i - 1 < view.comments.size() &&
         applies(view.comments[i - 1], true);
}

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;

std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

/// Fold one 8-byte word into a lane (the xxHash64 round).
std::uint64_t mix(std::uint64_t lane, std::uint64_t word) {
  return rotl(lane + word * kPrime2, 31) * kPrime1;
}

std::uint64_t load_word(const char* p, std::size_t n = 8) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, n);
  return w;
}

}  // namespace

std::uint64_t content_digest(std::string_view s) {
  // Four independent lanes eat 32 bytes per iteration, so their multiplies
  // overlap instead of queuing behind one another as a byte-serial hash's
  // do. The tail goes word by word into the lanes in turn, the last partial
  // word zero-padded; the length then tells "ab" from "ab\0".
  std::uint64_t lane[4] = {kPrime1, kPrime2, ~kPrime1, ~kPrime2};
  const char* p = s.data();
  std::size_t n = s.size();
  for (; n >= 32; p += 32, n -= 32)
    for (int i = 0; i < 4; ++i) lane[i] = mix(lane[i], load_word(p + 8 * i));
  for (int i = 0; n > 0; ++i) {
    const std::size_t take = n < 8 ? n : 8;
    lane[i] = mix(lane[i], load_word(p, take));
    p += take;
    n -= take;
  }
  std::uint64_t h = s.size() * kPrime1;
  for (const std::uint64_t l : lane) h = (h ^ mix(0, l)) * kPrime1 + kPrime2;
  // Final avalanche (MurmurHash3 fmix64), so every input bit reaches every
  // output bit.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace snnsec::lint
