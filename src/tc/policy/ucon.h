#ifndef TC_POLICY_UCON_H_
#define TC_POLICY_UCON_H_

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "tc/common/clock.h"
#include "tc/common/codec.h"
#include "tc/common/result.h"

namespace tc::policy {

/// Rights a rule can grant over a protected object.
enum class Right : uint8_t {
  kRead = 1,
  kWrite = 2,
  kShare = 3,      ///< Re-share to further recipients.
  kAggregate = 4,  ///< Use only inside aggregate computations (E5 commons).
  kExport = 5,     ///< Externalize outside the trusted-cell platform.
};

std::string_view RightName(Right right);

/// Attribute values used in conditions (subject attributes, environment).
using PolicyValue = std::variant<bool, int64_t, double, std::string>;

std::string PolicyValueToString(const PolicyValue& v);

/// Attribute bag describing a subject or the evaluation environment
/// (location, group membership, credential claims...).
using Attributes = std::map<std::string, PolicyValue>;

enum class ConditionOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// UCON *condition*: a predicate over subject/environment attributes that
/// must hold at decision time ("only from home network", "age >= 18").
struct AttributeCondition {
  std::string attribute;
  ConditionOp op;
  PolicyValue value;
};

/// UCON *obligation*: an action the consuming cell must perform as part of
/// exercising the right. The recipient's trusted cell discharges these
/// mechanically (that is the point of enforcing policy inside secure
/// hardware).
enum class ObligationType : uint8_t {
  kLogAccess = 1,    ///< Append to the audit log (and sync it back).
  kNotifyOwner = 2,  ///< Send an access notification to the data owner.
  kDeleteAfterUse = 3,
};

std::string_view ObligationName(ObligationType obligation);

/// One usage rule of the UCON-ABC model: Authorizations (subjects),
/// oBligations, Conditions, plus mutability (a usage counter).
/// Footnote 6 of the paper is expressible directly: "a photo could be
/// accessed ten times (mutability), in the course of 2012 (condition),
/// informing the owner of the precise access date (obligation)".
struct UsageRule {
  std::string id;
  /// Subjects the rule applies to; empty means any authenticated subject.
  std::vector<std::string> subjects;
  std::vector<Right> rights;
  std::vector<AttributeCondition> conditions;
  Timestamp not_before = 0;
  Timestamp not_after = INT64_MAX;
  /// Mutability: total number of allowed uses (0 = unlimited).
  uint64_t max_uses = 0;
  std::vector<ObligationType> obligations;
};

/// A policy: rule list evaluated first-match, default deny.
struct Policy {
  std::string id;
  std::string owner;
  std::vector<UsageRule> rules;

  /// "tc.policy.v1", id, owner, rules.
  Bytes Serialize() const;
  static Result<Policy> Deserialize(const Bytes& data);
  /// SHA-256 of the serialization — the value bound into AEAD contexts.
  Bytes Hash() const;
};

// Field lists in the one codec (tc/common/codec.h). A right or obligation
// is its u8 code; a condition's value is a u8 variant index, then the
// alternative.
void Put(BinaryWriter& w, Right v);
void Put(BinaryWriter& w, ObligationType v);
void Put(BinaryWriter& w, const AttributeCondition& v);
void Put(BinaryWriter& w, const UsageRule& v);
Status Get(BinaryReader& r, Right* v);
Status Get(BinaryReader& r, ObligationType* v);
Status Get(BinaryReader& r, AttributeCondition* v);
Status Get(BinaryReader& r, UsageRule* v);

/// An access request to evaluate.
struct AccessRequest {
  std::string subject;
  Right right;
  Attributes attributes;  ///< Subject + environment attributes.
  Timestamp now = 0;
};

/// Outcome of evaluation.
struct Decision {
  bool allowed = false;
  std::string rule_id;  ///< Matching rule when allowed.
  std::vector<ObligationType> obligations;
  std::string reason;   ///< Denial reason for audit.
};

/// UCON decision point with mutability state.
///
/// The PDP lives inside the trusted cell: its usage counters are part of
/// the cell's protected state, so a recipient cannot reset "10 accesses"
/// by reinstalling an app. Counters key on (policy, rule, subject).
class DecisionPoint {
 public:
  /// Evaluates and — when allowed — consumes one use of the matching rule.
  Decision EvaluateAndConsume(const Policy& policy,
                              const AccessRequest& request);

  /// Evaluation without consuming (for "can I?" UI queries).
  Decision Peek(const Policy& policy, const AccessRequest& request) const;

  /// Uses consumed so far for a rule+subject.
  uint64_t UseCount(const std::string& policy_id, const std::string& rule_id,
                    const std::string& subject) const;

  /// Serializes the mutability state (persisted by the cell layer): its
  /// (key, use count) pairs in key order.
  Bytes ExportState() const;
  Status ImportState(const Bytes& data);

 private:
  static std::string StateKey(const std::string& policy_id,
                              const std::string& rule_id,
                              const std::string& subject);
  Decision EvaluateInternal(const Policy& policy, const AccessRequest& request,
                            bool consume);
  std::map<std::string, uint64_t> use_counts_;
};

}  // namespace tc::policy

namespace tc {
// A condition: attribute length, op, value tag and its fewest value bytes.
template <>
inline constexpr size_t kMinEncodedBytes<policy::AttributeCondition> = 4;
// A rule: id length, four vector counts and three fixed u64/i64 fields.
template <>
inline constexpr size_t kMinEncodedBytes<policy::UsageRule> = 1 + 4 + 3 * 8;
}  // namespace tc

#endif  // TC_POLICY_UCON_H_
