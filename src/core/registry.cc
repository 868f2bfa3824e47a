#include "core/registry.h"

#include <cstdio>
#include <cstdlib>

#include "core/dcmt.h"
#include "models/aitm.h"
#include "models/cross_stitch.h"
#include "models/mmoe.h"
#include "models/ple.h"
#include "models/two_tower.h"

namespace dcmt {
namespace core {

std::unique_ptr<models::MultiTaskModel> CreateModel(
    const std::string& name, const data::FeatureSchema& schema,
    const models::ModelConfig& config) {
  if (name == "esmm") return std::make_unique<models::Esmm>(schema, config);
  if (name == "cross-stitch") {
    return std::make_unique<models::CrossStitch>(schema, config);
  }
  if (name == "mmoe") return std::make_unique<models::Mmoe>(schema, config);
  if (name == "ple") return std::make_unique<models::Ple>(schema, config);
  if (name == "aitm") return std::make_unique<models::Aitm>(schema, config);
  using Estimator = models::Escm2::Estimator;
  if (name == "escm2-ipw") {
    return std::make_unique<models::Escm2>(schema, config, Estimator::kIpw,
                                           /*global_risk=*/true);
  }
  if (name == "escm2-dr") {
    return std::make_unique<models::Escm2>(schema, config, Estimator::kDr,
                                           /*global_risk=*/true);
  }
  if (name == "dcmt-pd") {
    return std::make_unique<Dcmt>(schema, config, Dcmt::Variant::kPd);
  }
  if (name == "dcmt-cf") {
    return std::make_unique<Dcmt>(schema, config, Dcmt::Variant::kCf);
  }
  if (name == "dcmt") {
    return std::make_unique<Dcmt>(schema, config, Dcmt::Variant::kFull);
  }
  if (name == "naive") return std::make_unique<models::NaiveCvr>(schema, config);
  // Multi-IPW/DR is ESCM² without its CTCVR global risk term.
  if (name == "multi-ipw") {
    return std::make_unique<models::Escm2>(schema, config, Estimator::kIpw,
                                           /*global_risk=*/false);
  }
  if (name == "multi-dr") {
    return std::make_unique<models::Escm2>(schema, config, Estimator::kDr,
                                           /*global_risk=*/false);
  }
  std::fprintf(stderr,
               "unknown model '%s'; valid: esmm, cross-stitch, mmoe, ple, "
               "aitm, escm2-ipw, escm2-dr, dcmt-pd, dcmt-cf, dcmt, naive, "
               "multi-ipw, multi-dr\n",
               name.c_str());
  std::abort();
}

std::vector<std::string> AllModelNames() {
  return {"esmm",      "cross-stitch", "mmoe",    "ple",     "aitm",
          "escm2-ipw", "escm2-dr",     "dcmt-pd", "dcmt-cf", "dcmt"};
}

std::vector<std::string> ExtendedModelNames() {
  std::vector<std::string> names = {"naive", "multi-ipw", "multi-dr"};
  for (const std::string& n : AllModelNames()) names.push_back(n);
  return names;
}

std::vector<ModelInfo> AllModelInfo() {
  return {
      {"esmm", "parallel MTL", "shared bottom",
       "feature representation transfer learning"},
      {"cross-stitch", "multi-gate MTL", "cross-stitch unit",
       "activation combination"},
      {"mmoe", "multi-gate MTL", "gated mixture-of-experts",
       "trade-offs between task-specific objectives and inter-task relations"},
      {"ple", "multi-gate MTL", "customized gates, local & shared experts",
       "customized sharing (avoiding negative transfer)"},
      {"aitm", "multi-gate MTL", "shared bottom & inter-task transfer",
       "adaptive information transfer"},
      {"escm2-ipw", "causal", "two towers (CTR+CVR)",
       "propensity-based debiasing"},
      {"escm2-dr", "causal", "three towers (CTR+CVR+imputation)",
       "propensity-based debiasing & doubly robust estimation"},
      {"dcmt-pd", "ours (ablation)", "CTR tower + twin CVR tower",
       "propensity-based debiasing over D"},
      {"dcmt-cf", "ours (ablation)", "CTR tower + twin CVR tower",
       "counterfactual mechanism"},
      {"dcmt", "ours", "CTR tower + twin CVR tower",
       "propensity-based debiasing & counterfactual mechanism"},
  };
}

}  // namespace core
}  // namespace dcmt
