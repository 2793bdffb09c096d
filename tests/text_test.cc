#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "text/normalize.h"
#include "text/similarity.h"
#include "text/token_dictionary.h"
#include "text/tokenize.h"

namespace mc {
namespace {

using ::testing::Test;

TEST(NormalizeTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("Dave SMITH"), "dave smith");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(NormalizeTest, NormalizeForTokens) {
  EXPECT_EQ(NormalizeForTokens("Dave-Smith, NY!"), "dave smith  ny ");
}

TEST(NormalizeTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(TokenizeTest, WordTokens) {
  std::vector<std::string> tokens = WordTokens("Dave Smith, Altanta 18");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "dave");
  EXPECT_EQ(tokens[1], "smith");
  EXPECT_EQ(tokens[2], "altanta");
  EXPECT_EQ(tokens[3], "18");
}

TEST(TokenizeTest, WordTokensKeepDuplicates) {
  EXPECT_EQ(WordTokens("a b a").size(), 3u);
}

TEST(TokenizeTest, DistinctWordTokensDropDuplicates) {
  std::vector<std::string> tokens = DistinctWordTokens("a B a b c");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "b");
  EXPECT_EQ(tokens[2], "c");
}

TEST(TokenizeTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens("!!! --- ???").empty());
}

TEST(TokenizeTest, QGramsBasic) {
  std::vector<std::string> grams = QGrams("ab", 2);
  // "#ab#" -> {"#a", "ab", "b#"}
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0], "#a");
  EXPECT_EQ(grams[1], "ab");
  EXPECT_EQ(grams[2], "b#");
  // " Ab-ab! " -> "#ab ab#": punctuation runs become one space, the
  // trailing one is dropped, and the repeated "ab" is listed once.
  EXPECT_EQ(QGrams(" Ab-ab! ", 2),
            (std::vector<std::string>{"#a", "ab", "b ", " a", "b#"}));
}

TEST(TokenizeTest, QGramsEmptyInput) {
  EXPECT_TRUE(QGrams("", 3).empty());
  EXPECT_TRUE(QGrams("  ,,  ", 3).empty());
  EXPECT_TRUE(QGrams("abc", 0).empty());
}

TEST(TokenizeTest, QGramsNormalizeCaseAndSpaces) {
  EXPECT_EQ(QGrams("A  B", 2), QGrams("a b", 2));
}

TEST(TokenizeTest, LastAndFirstWord) {
  EXPECT_EQ(LastWordToken("Joe Welson"), "welson");
  EXPECT_EQ(FirstWordToken("Joe Welson"), "joe");
  EXPECT_EQ(LastWordToken(""), "");
  EXPECT_EQ(FirstWordToken("  ...  "), "");
}

TEST(SimilarityTest, JaccardBasics) {
  EXPECT_DOUBLE_EQ(WordJaccard("dave smith", "dave smith"), 1.0);
  EXPECT_DOUBLE_EQ(WordJaccard("dave smith", "john brown"), 0.0);
  // {dave, smith} vs {david, smith}: 1 shared / 3 union.
  EXPECT_DOUBLE_EQ(WordJaccard("dave smith", "david smith"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(WordJaccard("", ""), 1.0);
  EXPECT_DOUBLE_EQ(WordJaccard("a", ""), 0.0);
}

TEST(SimilarityTest, JaccardIgnoresDuplicates) {
  EXPECT_DOUBLE_EQ(WordJaccard("a a b", "a b b"), 1.0);
}

TEST(SimilarityTest, CosineAndDiceAndOverlapCoefficient) {
  std::vector<std::string> a{"x", "y"};
  std::vector<std::string> b{"y", "z", "w", "v"};
  // overlap=1, |a|=2, |b|=4.
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 1.0 / std::sqrt(8.0));
  EXPECT_DOUBLE_EQ(DiceSimilarity(a, b), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(a, b), 0.5);
  EXPECT_EQ(OverlapSize(a, b), 1u);
}

TEST(SimilarityTest, EditDistance) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("welson", "wilson"), 1u);
  EXPECT_EQ(EditDistance("altanta", "atlanta"), 2u);
}

TEST(SimilarityTest, BoundedEditDistanceAgreesWithinBound) {
  const char* words[] = {"", "a", "ab", "smith", "smyth", "welson",
                         "wilson", "atlanta", "altanta"};
  for (const char* x : words) {
    for (const char* y : words) {
      size_t d = EditDistance(x, y);
      for (size_t bound = 0; bound < 6; ++bound) {
        size_t bd = BoundedEditDistance(x, y, bound);
        if (d <= bound) {
          EXPECT_EQ(bd, d) << x << " vs " << y << " bound " << bound;
        } else {
          EXPECT_GT(bd, bound) << x << " vs " << y << " bound " << bound;
        }
      }
    }
  }
}

TEST(SimilarityTest, NormalizedEditSimilarity) {
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", ""), 0.0);
  EXPECT_NEAR(NormalizedEditSimilarity("welson", "wilson"), 1.0 - 1.0 / 6.0,
              1e-12);
}

TEST(SimilarityTest, SoundexClassicExamples) {
  EXPECT_EQ(Soundex("Robert"), "R163");
  EXPECT_EQ(Soundex("Rupert"), "R163");
  EXPECT_EQ(Soundex("Ashcraft"), "A261");
  EXPECT_EQ(Soundex("Tymczak"), "T522");
  EXPECT_EQ(Soundex("Pfister"), "P236");
  EXPECT_EQ(Soundex("Honeyman"), "H555");
  EXPECT_EQ(Soundex(""), "");
  EXPECT_EQ(Soundex("123"), "");
}

TEST(SimilarityTest, SoundexMatchesSimilarNames) {
  EXPECT_EQ(Soundex("Smith"), Soundex("Smyth"));
}

TEST(SimilarityTest, FromCountsMatchesDirect) {
  std::vector<std::string> a{"p", "q", "r"};
  std::vector<std::string> b{"q", "r", "s", "t"};
  size_t overlap = OverlapSize(a, b);
  EXPECT_DOUBLE_EQ(
      SetSimilarityFromCounts(SetMeasure::kJaccard, 3, 4, overlap),
      JaccardSimilarity(a, b));
  EXPECT_DOUBLE_EQ(
      SetSimilarityFromCounts(SetMeasure::kCosine, 3, 4, overlap),
      CosineSimilarity(a, b));
  EXPECT_DOUBLE_EQ(SetSimilarityFromCounts(SetMeasure::kDice, 3, 4, overlap),
                   DiceSimilarity(a, b));
  EXPECT_DOUBLE_EQ(
      SetSimilarityFromCounts(SetMeasure::kOverlapCoefficient, 3, 4, overlap),
      OverlapCoefficient(a, b));
}

class SetMeasureCapTest : public ::testing::TestWithParam<SetMeasure> {};

// Property: the cap is an upper bound on the measure for any partner that
// shares only suffix tokens, and is non-increasing in position.
TEST_P(SetMeasureCapTest, CapBoundsAndMonotonicity) {
  const SetMeasure measure = GetParam();
  for (size_t size_a : {1u, 2u, 3u, 5u, 8u, 20u}) {
    double previous = 2.0;
    for (size_t position = 0; position < size_a; ++position) {
      double cap = SetSimilarityCap(measure, size_a, position);
      EXPECT_LE(cap, previous + 1e-12);
      previous = cap;
      size_t remaining = size_a - position;
      // Any partner of size |y| sharing o <= min(remaining, |y|) tokens must
      // score at most cap.
      for (size_t size_y = 1; size_y <= size_a + 3; ++size_y) {
        size_t max_overlap = std::min(remaining, size_y);
        double score =
            SetSimilarityFromCounts(measure, size_a, size_y, max_overlap);
        EXPECT_LE(score, cap + 1e-12)
            << SetMeasureName(measure) << " |a|=" << size_a
            << " pos=" << position << " |y|=" << size_y;
      }
    }
    EXPECT_DOUBLE_EQ(SetSimilarityCap(measure, size_a, size_a), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, SetMeasureCapTest,
                         ::testing::Values(SetMeasure::kJaccard,
                                           SetMeasure::kCosine,
                                           SetMeasure::kDice,
                                           SetMeasure::kOverlapCoefficient),
                         [](const auto& info) {
                           return std::string(SetMeasureName(info.param));
                         });

TEST(SimilarityTest, PaperExampleCap) {
  // Paper §4.1: |w| = 4, extending the prefix to the second token caps new
  // pairs at 3/4 = 0.75.
  EXPECT_DOUBLE_EQ(SetSimilarityCap(SetMeasure::kJaccard, 4, 1), 0.75);
}

TEST(TokenDictionaryTest, InternAndLookup) {
  TokenDictionary dict;
  TokenId a = dict.Intern("smith");
  TokenId b = dict.Intern("dave");
  TokenId a2 = dict.Intern("smith");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.TokenOf(a), "smith");
  EXPECT_TRUE(dict.Find("dave").has_value());
  EXPECT_FALSE(dict.Find("zzz").has_value());
}

TEST(TokenDictionaryTest, RanksAscendingByDocumentFrequency) {
  TokenDictionary dict;
  TokenId common = dict.Intern("the");
  TokenId rare = dict.Intern("xylophone");
  TokenId medium = dict.Intern("smith");
  dict.AddDocument({common, medium});
  dict.AddDocument({common, medium});
  dict.AddDocument({common, rare});
  dict.FinalizeRanks();
  EXPECT_LT(dict.RankOf(rare), dict.RankOf(medium));
  EXPECT_LT(dict.RankOf(medium), dict.RankOf(common));
  EXPECT_EQ(dict.DocumentFrequency(common), 3u);
  EXPECT_EQ(dict.DocumentFrequency(rare), 1u);
}

TEST(TokenDictionaryTest, RankTieBrokenByTokenString) {
  TokenDictionary dict;
  TokenId b = dict.Intern("beta");
  TokenId a = dict.Intern("alpha");
  dict.AddDocument({a});
  dict.AddDocument({b});
  dict.FinalizeRanks();
  EXPECT_LT(dict.RankOf(a), dict.RankOf(b));
}

}  // namespace
}  // namespace mc
