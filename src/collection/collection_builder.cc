#include "collection/collection_builder.h"

#include <random>
#include <utility>

#include "era/parallel_builder.h"
#include "text/corpus.h"

namespace era {

Status CollectionBuilder::AddDocument(std::string name, std::string body) {
  if (name.empty()) return Status::InvalidArgument("document name is empty");
  if (names_.count(name) > 0) {
    return Status::InvalidArgument("duplicate document name: " + name);
  }
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (alphabet_.Contains(c)) continue;
    if (c == options_.separator) {
      return Status::InvalidArgument(
          "document " + name + " contains the reserved separator byte at " +
          std::to_string(i));
    }
    if (c == kTerminal) {
      return Status::InvalidArgument(
          "document " + name + " contains the terminal byte at " +
          std::to_string(i));
    }
    return Status::InvalidArgument("document " + name +
                                   " contains a byte outside the alphabet at " +
                                   std::to_string(i));
  }
  names_.insert(name);
  documents_.push_back({std::move(name), std::move(body)});
  return Status::OK();
}

Status CollectionBuilder::AddTextFile(Env* env, const std::string& path,
                                      const std::string& name) {
  std::string body;
  ERA_RETURN_NOT_OK(env->ReadFileToString(path, &body));
  if (!body.empty() && body.back() == kTerminal) body.pop_back();
  return AddDocument(name.empty() ? path : name, std::move(body));
}

Status CollectionBuilder::AddFastaFile(Env* env, const std::string& path,
                                       FastaCleanPolicy policy) {
  ERA_ASSIGN_OR_RETURN(std::vector<FastaRecord> records,
                       ReadFastaRecords(env, path, alphabet_, policy));
  for (FastaRecord& record : records) {
    ERA_RETURN_NOT_OK(
        AddDocument(std::move(record.header), std::move(record.sequence)));
  }
  return Status::OK();
}

Status CollectionBuilder::AddSyntheticDocuments(std::size_t count,
                                                std::size_t body_len,
                                                uint64_t seed,
                                                const std::string& prefix) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> symbol_dist(0, alphabet_.size() - 1);
  std::uniform_int_distribution<std::size_t> len_dist(
      body_len / 2, body_len + body_len / 2);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t len = body_len == 0 ? 0 : len_dist(rng);
    std::string body;
    body.reserve(len);
    for (std::size_t j = 0; j < len; ++j) {
      body.push_back(alphabet_.Symbol(symbol_dist(rng)));
    }
    ERA_RETURN_NOT_OK(
        AddDocument(prefix + std::to_string(i), std::move(body)));
  }
  return Status::OK();
}

StatusOr<CollectionBuildResult> CollectionBuilder::Build() {
  if (documents_.empty()) {
    return Status::InvalidArgument("collection has no documents");
  }
  const std::string& symbols = alphabet_.symbols();
  if (static_cast<unsigned char>(options_.separator) <=
      static_cast<unsigned char>(symbols.back())) {
    return Status::InvalidArgument(
        "separator must sort above every alphabet symbol");
  }
  // Extending the alphabet with the separator keeps strictly ascending byte
  // order, so the radix kernel and the packed format's unsigned child
  // ordering need no special cases for collections.
  ERA_ASSIGN_OR_RETURN(Alphabet extended,
                       Alphabet::Create(symbols + options_.separator));

  ERA_ASSIGN_OR_RETURN(GeneralizedCollection collection,
                       ConcatenateCollection(documents_, options_.separator));

  Env* env = options_.build.GetEnv();
  ERA_RETURN_NOT_OK(env->CreateDir(options_.build.work_dir));
  ERA_ASSIGN_OR_RETURN(
      TextInfo info,
      MaterializeText(env, options_.build.work_dir + "/TEXT", extended,
                      collection.text));

  ParallelBuilder builder(options_.build, options_.num_workers);
  ERA_ASSIGN_OR_RETURN(ParallelBuildResult built, builder.Build(info));

  ERA_RETURN_NOT_OK(collection.documents.Save(
      env, options_.build.work_dir + "/" + kDocMapFilename));

  CollectionBuildResult result;
  result.index = std::move(built.index);
  result.documents = std::move(collection.documents);
  result.stats = built.stats;
  return result;
}

}  // namespace era
