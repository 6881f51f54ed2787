#include "cellbench/src/workload.h"

#include <algorithm>
#include <cmath>

#include "tc/common/rng.h"

namespace cellbench {
namespace {

// Rates measured when the benchmark was introduced; they set only how
// many rounds a run makes. A vault round grows each vault from 256 to
// about 856 documents, and the most frequent term then indexes about 430
// of them. The keyword index keeps a term's postings in one record, which
// fails at about 1,969 documents per term; a store that hits it counts
// as an error.
const WorkloadSpec kWorkloads[] = {
    {"vault_local", /*wire=*/false, /*cells=*/3, /*preload_docs=*/256,
     /*doc_bytes=*/4096, /*updates=*/false, /*store_share=*/0.2,
     /*ops_per_cell=*/3000, /*cell_ops_per_second=*/960},
    {"vault_wire", /*wire=*/true, /*cells=*/2, /*preload_docs=*/256,
     /*doc_bytes=*/256, /*updates=*/false, /*store_share=*/0.2,
     /*ops_per_cell=*/3000, /*cell_ops_per_second=*/1450},
    {"shared_update_wire", /*wire=*/true, /*cells=*/2, /*preload_docs=*/64,
     /*doc_bytes=*/1024, /*updates=*/true, /*store_share=*/0.0,
     /*ops_per_cell=*/100, /*cell_ops_per_second=*/26},
};

constexpr size_t kVocabulary = 1024;
constexpr size_t kTermsPerDoc = 5;

/// Fixed, seed-independent vocabulary of pronounceable lowercase words
/// (the keyword tokenizer keeps alphanumerics only).
const std::vector<std::string>& Vocabulary() {
  static const std::vector<std::string> words = [] {
    static const char kConsonants[] = "bdfgklmnprstvz";
    static const char kVowels[] = "aeiou";
    const size_t nc = sizeof(kConsonants) - 1, nv = sizeof(kVowels) - 1;
    std::vector<std::string> out;
    for (size_t i = 0; i < kVocabulary; ++i) {
      std::string w;
      size_t x = i;
      for (int syllable = 0; syllable < 3; ++syllable) {
        w.push_back(kConsonants[x % nc]);
        x /= nc;
        w.push_back(kVowels[x % nv]);
        x /= nv;
      }
      out.push_back(std::move(w));
    }
    return out;
  }();
  return words;
}

/// Zipf(s = 1) over vocabulary ranks: term k is drawn with weight 1/(k+1).
class ZipfTerms {
 public:
  ZipfTerms() {
    double total = 0;
    for (size_t k = 0; k < kVocabulary; ++k) {
      total += 1.0 / double(k + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(tc::Rng& rng) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return std::min<size_t>(it - cdf_.begin(), kVocabulary - 1);
  }

 private:
  std::vector<double> cdf_;
};

DocText MakeText(tc::Rng& rng, const ZipfTerms& zipf) {
  std::vector<size_t> terms;
  while (terms.size() < kTermsPerDoc) {
    size_t t = zipf.Draw(rng);
    if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
      terms.push_back(t);
    }
  }
  const auto& vocab = Vocabulary();
  DocText text;
  text.title = vocab[terms[0]] + " " + vocab[terms[1]];
  text.keywords =
      vocab[terms[2]] + " " + vocab[terms[3]] + " " + vocab[terms[4]];
  return text;
}

uint64_t CellSeed(uint64_t seed, size_t cell) {
  // splitmix64 finalizer over (seed, cell): independent per-cell streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + (cell + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

const char* OpName(OpType type) {
  switch (type) {
    case OpType::kFetch:
      return "fetch";
    case OpType::kStore:
      return "store";
    case OpType::kUpdate:
      return "update";
  }
  return "unknown";
}

int WorkloadSpec::Rounds(double seconds) const {
  return std::max(1, static_cast<int>(std::lround(
                         seconds * cell_ops_per_second / ops_per_cell)));
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<CellPlan> MakePlans(const WorkloadSpec& spec, uint64_t seed,
                                size_t ops_per_cell) {
  static const ZipfTerms zipf;
  std::vector<CellPlan> plans(spec.cells);
  for (size_t c = 0; c < spec.cells; ++c) {
    CellPlan& plan = plans[c];
    tc::Rng rng(CellSeed(seed, c));
    plan.cell_id = "gateway" + std::to_string(c);
    plan.owner = "owner" + std::to_string(c);
    plan.preload_docs = spec.preload_docs;
    for (size_t d = 0; d < spec.preload_docs; ++d) {
      plan.texts.push_back(MakeText(rng, zipf));
      plan.payloads.push_back(rng.NextBytes(spec.doc_bytes));
    }
    uint32_t docs = static_cast<uint32_t>(spec.preload_docs);
    plan.ops.reserve(ops_per_cell);
    for (size_t i = 0; i < ops_per_cell; ++i) {
      Op op;
      if (spec.updates) {
        op.type = OpType::kUpdate;
        op.doc = static_cast<uint32_t>(rng.NextBelow(spec.preload_docs));
        op.payload = static_cast<uint32_t>(plan.payloads.size());
        plan.payloads.push_back(rng.NextBytes(spec.doc_bytes));
      } else if (rng.NextBernoulli(spec.store_share)) {
        op.type = OpType::kStore;
        op.doc = docs++;
        op.payload = static_cast<uint32_t>(plan.payloads.size());
        plan.texts.push_back(MakeText(rng, zipf));
        plan.payloads.push_back(rng.NextBytes(spec.doc_bytes));
      } else {
        op.type = OpType::kFetch;
        op.doc = static_cast<uint32_t>(rng.NextBelow(docs));
      }
      plan.ops.push_back(op);
    }
  }
  return plans;
}

}  // namespace cellbench
