#include "text/tokenize.h"

#include <cctype>
#include <unordered_set>

#include "text/normalize.h"

namespace mc {

namespace {

// Invokes `fn(token)` for each maximal alphanumeric run, lower-cased.
template <typename Fn>
void ForEachWordToken(std::string_view text, Fn&& fn) {
  std::string current;
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if (!current.empty()) {
      fn(current);
      current.clear();
    }
  }
  if (!current.empty()) fn(current);
}

}  // namespace

std::vector<std::string> WordTokens(std::string_view text) {
  std::vector<std::string> tokens;
  ForEachWordToken(text, [&](const std::string& token) {
    tokens.push_back(token);
  });
  return tokens;
}

std::vector<std::string> DistinctWordTokens(std::string_view text) {
  std::vector<std::string> tokens;
  std::unordered_set<std::string> seen;
  ForEachWordToken(text, [&](const std::string& token) {
    if (seen.insert(token).second) tokens.push_back(token);
  });
  return tokens;
}

bool PadForQGrams(std::string_view text, size_t q, std::string* padded) {
  padded->clear();
  if (q == 0) return false;
  padded->append(q - 1, '#');
  bool last_was_space = true;
  bool has_content = false;
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      padded->push_back(static_cast<char>(std::tolower(c)));
      last_was_space = false;
      has_content = true;
    } else if (!last_was_space) {
      padded->push_back(' ');
      last_was_space = true;
    }
  }
  if (!has_content) return false;
  if (padded->back() == ' ') padded->pop_back();
  padded->append(q - 1, '#');
  return true;
}

std::vector<std::string> QGrams(std::string_view text, size_t q) {
  std::vector<std::string> grams;
  std::unordered_set<std::string_view> seen;
  std::string padded;
  ForEachQGram(text, q, &padded, [&](std::string_view gram) {
    if (seen.insert(gram).second) grams.emplace_back(gram);
  });
  return grams;
}

std::string LastWordToken(std::string_view text) {
  std::string last;
  ForEachWordToken(text, [&](const std::string& token) { last = token; });
  return last;
}

std::string FirstWordToken(std::string_view text) {
  std::string first;
  ForEachWordToken(text, [&](const std::string& token) {
    if (first.empty()) first = token;
  });
  return first;
}

}  // namespace mc
