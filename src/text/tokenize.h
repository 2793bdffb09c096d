#ifndef MATCHCATCHER_TEXT_TOKENIZE_H_
#define MATCHCATCHER_TEXT_TOKENIZE_H_

#include <string>
#include <string_view>
#include <vector>

namespace mc {

/// Splits `text` into lower-cased word tokens (maximal alphanumeric runs).
/// "Dave Smith, Altanta" -> {"dave", "smith", "altanta"}.
std::vector<std::string> WordTokens(std::string_view text);

/// Distinct word tokens in first-appearance order (set semantics, which is
/// how the paper defines Jaccard over strings in §3.1).
std::vector<std::string> DistinctWordTokens(std::string_view text);

/// Character q-grams of the normalized string (spaces collapsed, the string
/// padded with q-1 '#' on each side, standard record-linkage convention).
/// Returns distinct q-grams in first-appearance order: ForEachQGram's walk
/// with repeats dropped.
std::vector<std::string> QGrams(std::string_view text, size_t q);

/// Writes the string QGrams() slices into `padded`: `text` lower-cased,
/// every non-alphanumeric run collapsed to one space, trailing space
/// dropped, and q-1 '#' on each side. Returns false (and no grams exist)
/// when `text` has no alphanumeric byte or q == 0.
bool PadForQGrams(std::string_view text, size_t q, std::string* padded);

/// Calls `fn(gram)` with every q-gram of `text`'s padded form, left to
/// right, repeats included. Each gram is a view into `padded`, a scratch
/// buffer the caller reuses across calls, so the walk allocates nothing
/// once the buffer has grown.
template <typename Fn>
void ForEachQGram(std::string_view text, size_t q, std::string* padded,
                  Fn&& fn) {
  if (!PadForQGrams(text, q, padded)) return;
  const std::string_view grams(*padded);
  for (size_t i = 0; i + q <= grams.size(); ++i) fn(grams.substr(i, q));
}

/// Last word token of `text`, or "" if there is none. Used by hash blockers
/// such as lastword(a.Name) = lastword(b.Name) in the paper's Example 1.1.
std::string LastWordToken(std::string_view text);

/// First word token of `text`, or "" if there is none.
std::string FirstWordToken(std::string_view text);

}  // namespace mc

#endif  // MATCHCATCHER_TEXT_TOKENIZE_H_
