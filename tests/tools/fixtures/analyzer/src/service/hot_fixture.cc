// Seeded violations for the hot-path-rebuild rule: a miniature
// RiskService whose drain path reaches EncodedProfileTable::Build,
// SimilarityMatrix::Compact, ProfileCodec construction, and
// BenefitModel::ComputeBatch outside the sanctioned cold-rebuild
// fallbacks. Never compiled; driven by tests/tools/sight_analyzer_test.py.

#include <cstddef>

namespace sight {

class ProfileCodec {
 public:
  explicit ProfileCodec(size_t num_attrs);
};

class EncodedProfileTable {
 public:
  static EncodedProfileTable Build();
};

class SimilarityMatrix {
 public:
  void Compact();
};

class StrangerEncodeCache {
 public:
  // GOOD: the sanctioned cold-rebuild fallback may call Build.
  void Refresh() { EncodedProfileTable::Build(); }
};

class BenefitModel {
 public:
  void ComputeBatch() const;
};

class NetworkSimilarity {
 public:
  void ComputeBatch() const;
};

class BenefitCache {
 public:
  // GOOD: the epoch-guarded benefit carry computes what changed.
  void Refresh(const BenefitModel& model) { model.ComputeBatch(); }
};

class RiskService {
 public:
  // Entry point: the analyzer walks the call graph from here.
  void DrainShard() { RebuildEverything(); }

 private:
  void RebuildEverything() {
    // BAD: full encode rebuild on the serving path.
    EncodedProfileTable::Build();
    // BAD: matrix recompaction on the serving path.
    weights_.Compact();
    // BAD: codec construction (temporary form) on the serving path.
    ProfileCodec(4);
    // BAD: codec construction (declaration form) on the serving path.
    ProfileCodec codec(8);
    // GOOD: the sanctioned fallback is reachable but not reported.
    cache_.Refresh();
    (void)codec;
    // BAD: benefits recomputed for every stranger on the serving path.
    BenefitModel benefit;
    benefit.ComputeBatch();
    // BAD: a receiver of undeclared type may be a BenefitModel.
    model_.ComputeBatch();
    // GOOD: a network-similarity batch is not a benefit recompute.
    NetworkSimilarity similarity;
    similarity.ComputeBatch();
    // GOOD: the benefit carry is the sanctioned refresh.
    benefits_.Refresh(benefit);
  }

  SimilarityMatrix weights_;
  StrangerEncodeCache cache_;
  BenefitModel model_;
  BenefitCache benefits_;
};

// GOOD: not reachable from any serving entry point — rebuilds are fine
// in offline/batch code.
void OfflineRebuild() {
  EncodedProfileTable::Build();
  ProfileCodec codec(2);
  (void)codec;
  BenefitModel benefit;
  benefit.ComputeBatch();
}

}  // namespace sight
