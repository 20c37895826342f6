// Plagiarism detection via a generalized suffix tree (Section 1's document
// clustering / common-substring motivation).
//
//   ./plagiarism_detection
//
// Builds one ERA index over a collection of English-like documents (two of
// which share plagiarized passages), then reports the longest common
// substring of every document pair — the classic generalized-suffix-tree
// application.

#include <cstdio>
#include <string>
#include <vector>

#include "era/parallel_builder.h"
#include "io/env.h"
#include "query/applications.h"
#include "text/text_generator.h"

int main() {
  using namespace era;

  Env* env = GetDefaultEnv();
  const std::string dir = "/tmp/era_plagiarism";
  if (Status s = env->CreateDir(dir); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // ---- A small corpus of documents; documents 0 and 2 share a planted
  //      passage, documents 1 and 3 are independent.
  const std::string passage =
      "intheorysuffixtreesanswersubstringqueriesinoptimaltime";
  std::vector<std::string> docs;
  for (int d = 0; d < 4; ++d) {
    std::string text = GenerateEnglish(20000, 1000 + d);
    text.pop_back();  // strip the terminal; ConcatenateDocuments adds one
    if (d == 0) text.insert(5000, passage);
    if (d == 2) text.insert(12000, passage);
    docs.push_back(std::move(text));
  }

  // ---- Generalized text: documents joined by '#', one index for all.
  auto combined = ConcatenateDocuments(docs, '#');
  if (!combined.ok()) {
    std::fprintf(stderr, "%s\n", combined.status().ToString().c_str());
    return 1;
  }
  auto alphabet = Alphabet::Create("#abcdefghijklmnopqrstuvwxyz");
  auto text = MaterializeText(env, dir + "/docs.txt", *alphabet,
                              combined->text);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }

  BuildOptions options;
  options.work_dir = dir + "/index";
  options.memory_budget = 4 << 20;
  ParallelBuilder builder(options, 1);
  auto result = builder.Build(*text);
  if (!result.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu documents (%llu symbols) in %.2fs\n", docs.size(),
              static_cast<unsigned long long>(text->length - 1),
              result->stats.total_seconds);

  // ---- Longest common substring of every pair.
  std::printf("\npairwise longest common substrings:\n");
  for (std::size_t a = 0; a < docs.size(); ++a) {
    for (std::size_t b = a + 1; b < docs.size(); ++b) {
      auto lcs = LongestCommonSubstring(env, result->index,
                                        combined->documents,
                                        static_cast<uint32_t>(a),
                                        static_cast<uint32_t>(b));
      if (!lcs.ok()) {
        std::fprintf(stderr, "%s\n", lcs.status().ToString().c_str());
        return 1;
      }
      std::string preview =
          combined->text.substr(lcs->offset, std::min<uint64_t>(lcs->length,
                                                                 40));
      std::printf("  doc%zu vs doc%zu: %4llu symbols  \"%s%s\"%s\n", a, b,
                  static_cast<unsigned long long>(lcs->length),
                  preview.c_str(), lcs->length > 40 ? "..." : "",
                  lcs->length >= passage.size() ? "   <-- SUSPICIOUS" : "");
    }
  }
  std::printf("\n(the planted passage has %zu symbols; doc0/doc2 should "
              "stand out)\n",
              passage.size());
  return 0;
}
