// The capability model: maps (model size, measured quantization error, measured attention
// numeric error) to task-solving skill, choice-task accuracy and perplexity.
//
// This is the substitution for running real checkpoints on real datasets (DESIGN.md §2).
// Structure:
//
//   * Item-Response-Theory core: a policy with latent skill theta solves a task of
//     difficulty d with probability sigmoid(theta - d). FP16 skills are solved numerically
//     from published accuracy anchors of the exact model variants the paper uses.
//   * Quantization damage: theta_eff = theta - lambda_d * err^p_d, where `err` is the
//     relative RMS weight-reconstruction error MEASURED by running this repo's actual
//     quantizers on synthetic LLM-like weights. (lambda_d, p_d) are calibrated per dataset
//     on the two Table 1 anchor cells (AWQ group-quant, QNN per-channel); every other cell
//     (tile-group, Q8 mixes, Figure 5/10 settings) is then a prediction.
//   * Perplexity proxy: ln(ppl) = ln(ppl_f16) + kappa * err^0.8, kappa calibrated per model
//     family on one anchored cell.
//   * Choice tasks (WinoGrande/MMLU): acc = chance + (acc_f16 - chance) * exp(-c * err),
//     c calibrated on Table 4's WinoGrande common-group cell.
//
// All measured errors come from hquant code paths; nothing in Tables 1/4/5 is typed in
// directly except the calibration anchors (which DESIGN.md lists).
#ifndef SRC_TTS_CAPABILITY_MODEL_H_
#define SRC_TTS_CAPABILITY_MODEL_H_

#include <cstdint>

#include "src/llm/model_config.h"
#include "src/tts/task.h"

namespace htts {

// Standard deviation of the shared per-(task, trial) skill perturbation: parallel samples
// of one attempt are correlated because the model systematically misreads/mis-plans a given
// problem (see tts.cc). Calibration marginalizes over it so single-sample accuracies still
// match the anchors.
inline constexpr double kTrialSkillSd = 1.8;

class CapabilityModel {
 public:
  // Measures quantization/attention errors with the real kernels and calibrates the skill
  // mapping. Deterministic (fixed seeds), so the work runs once per process: the first
  // construction measures, every construction copies that result.
  CapabilityModel();

  // --- measured error statistics (relative RMS) ---
  double common_group_q4_err() const { return common_group_q4_err_; }
  double tile_group_q4_err() const { return tile_group_q4_err_; }
  double per_channel_q4_err() const { return per_channel_q4_err_; }
  double q8_err() const { return q8_err_; }
  double lut_f16_attention_err() const { return lut_f16_attention_err_; }
  // Attention output error under a KV storage dtype (docs/kv_quantization.md): the F16+LUT
  // probe rerun with K/V round-tripped through the paged cache's write-time quantizers.
  // Includes the LUT-softmax deviation, so AttentionErr(kF16) == lut_f16_attention_err().
  double AttentionErr(hquant::KvDtype kv_dtype) const {
    switch (kv_dtype) {
      case hquant::KvDtype::kInt4:
        return kv_int4_attention_err_;
      case hquant::KvDtype::kInt8:
        return kv_int8_attention_err_;
      default:
        return lut_f16_attention_err_;
    }
  }

  // Parameter-weighted weight error of a model deployed with this repo's scheme
  // (tile-group Q4 projections + Q8 FFN-down, §7.1).
  double DeployedWeightErr(const hllm::ModelConfig& m) const;

  // --- skill / accuracy ---
  // FP16 anchor skill of a model on a reasoning dataset (solved from public accuracies).
  double ThetaF16(const hllm::ModelConfig& m, Dataset d) const;
  // Skill after quantization/attention damage.
  double EffectiveTheta(const hllm::ModelConfig& m, Dataset d, double weight_err,
                        double attn_err) const;
  // Solve probability of one task.
  static double SolveProb(double theta, const ReasoningTask& task);
  // Mean single-sample accuracy over a task set (the "base"/pass@1 point), marginalized
  // over the trial-level skill perturbation (probit approximation).
  static double MeanAccuracy(const TaskSet& tasks, double theta);

  // --- proxies ---
  double WikiPerplexity(const hllm::ModelConfig& m, double weight_err, double attn_err) const;
  double ChoiceAccuracy(Dataset d, const hllm::ModelConfig& m, double weight_err,
                        double attn_err) const;

  // Skill penalty for (weight_err, attn_err) on dataset d (exposed for tests).
  double SkillPenalty(Dataset d, double weight_err, double attn_err) const;

 private:
  // The measuring and calibrating constructor behind the process-wide instance.
  struct MeasureTag {};
  explicit CapabilityModel(MeasureTag);

  double common_group_q4_err_ = 0.0;
  double tile_group_q4_err_ = 0.0;
  double per_channel_q4_err_ = 0.0;
  double q8_err_ = 0.0;
  double lut_f16_attention_err_ = 0.0;
  double kv_int8_attention_err_ = 0.0;
  double kv_int4_attention_err_ = 0.0;

  // Per-dataset damage-curve parameters (MATH500, GSM8K).
  double lambda_math_ = 0.0, p_math_ = 1.0;
  double lambda_gsm_ = 0.0, p_gsm_ = 1.0;
  double choice_c_ = 0.0;       // choice-task sensitivity
  double kappa_qwen_ = 0.0;     // perplexity sensitivity, Qwen family
  double kappa_llama_ = 0.0;    // perplexity sensitivity, Llama family
};

}  // namespace htts

#endif  // SRC_TTS_CAPABILITY_MODEL_H_
