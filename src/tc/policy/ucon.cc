#include "tc/policy/ucon.h"

#include <algorithm>

#include "tc/crypto/sha256.h"

namespace tc::policy {
namespace {

const std::string kPolicyMagic = "tc.policy.v1";

// A PolicyValue is a std::variant, whose namespace is std's: its Put and
// Get are this file's own, called by name.
void PutValue(BinaryWriter& w, const PolicyValue& v) {
  Put(w, static_cast<uint8_t>(v.index()));
  std::visit([&w](const auto& alternative) { Put(w, alternative); }, v);
}

template <typename T>
Status GetAlternative(BinaryReader& r, PolicyValue* v) {
  T alternative;
  TC_RETURN_IF_ERROR(Get(r, &alternative));
  *v = std::move(alternative);
  return Status::OK();
}

Status GetValue(BinaryReader& r, PolicyValue* v) {
  uint8_t tag = 0;
  TC_RETURN_IF_ERROR(Get(r, &tag));
  switch (tag) {
    case 0:
      return GetAlternative<bool>(r, v);
    case 1:
      return GetAlternative<int64_t>(r, v);
    case 2:
      return GetAlternative<double>(r, v);
    case 3:
      return GetAlternative<std::string>(r, v);
    default:
      return Status::Corruption("bad policy value tag");
  }
}

/// Three-way compare of same-type values; int/double compare numerically.
Result<int> ComparePolicyValues(const PolicyValue& a, const PolicyValue& b) {
  auto as_num = [](const PolicyValue& v) -> Result<double> {
    if (std::holds_alternative<int64_t>(v)) {
      return static_cast<double>(std::get<int64_t>(v));
    }
    if (std::holds_alternative<double>(v)) return std::get<double>(v);
    return Status::InvalidArgument("not numeric");
  };
  auto na = as_num(a);
  auto nb = as_num(b);
  if (na.ok() && nb.ok()) {
    if (*na < *nb) return -1;
    if (*na > *nb) return 1;
    return 0;
  }
  if (a.index() != b.index()) {
    return Status::InvalidArgument("attribute type mismatch");
  }
  if (std::holds_alternative<bool>(a)) {
    return static_cast<int>(std::get<bool>(a)) -
           static_cast<int>(std::get<bool>(b));
  }
  const std::string& sa = std::get<std::string>(a);
  const std::string& sb = std::get<std::string>(b);
  if (sa < sb) return -1;
  if (sa > sb) return 1;
  return 0;
}

}  // namespace

std::string_view RightName(Right right) {
  switch (right) {
    case Right::kRead:
      return "read";
    case Right::kWrite:
      return "write";
    case Right::kShare:
      return "share";
    case Right::kAggregate:
      return "aggregate";
    case Right::kExport:
      return "export";
  }
  return "?";
}

std::string_view ObligationName(ObligationType obligation) {
  switch (obligation) {
    case ObligationType::kLogAccess:
      return "log-access";
    case ObligationType::kNotifyOwner:
      return "notify-owner";
    case ObligationType::kDeleteAfterUse:
      return "delete-after-use";
  }
  return "?";
}

std::string PolicyValueToString(const PolicyValue& v) {
  switch (v.index()) {
    case 0:
      return std::get<bool>(v) ? "true" : "false";
    case 1:
      return std::to_string(std::get<int64_t>(v));
    case 2: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", std::get<double>(v));
      return buf;
    }
    default:
      return std::get<std::string>(v);
  }
}

void Put(BinaryWriter& w, Right v) { Put(w, static_cast<uint8_t>(v)); }

void Put(BinaryWriter& w, ObligationType v) {
  Put(w, static_cast<uint8_t>(v));
}

void Put(BinaryWriter& w, const AttributeCondition& v) {
  PutFields(w, v.attribute, static_cast<uint8_t>(v.op));
  PutValue(w, v.value);
}

void Put(BinaryWriter& w, const UsageRule& v) {
  PutFields(w, v.id, v.subjects, v.rights, v.conditions, v.not_before,
            v.not_after, v.max_uses, v.obligations);
}

Status Get(BinaryReader& r, Right* v) {
  uint8_t code = 0;
  TC_RETURN_IF_ERROR(Get(r, &code));
  *v = static_cast<Right>(code);
  return Status::OK();
}

Status Get(BinaryReader& r, ObligationType* v) {
  uint8_t code = 0;
  TC_RETURN_IF_ERROR(Get(r, &code));
  *v = static_cast<ObligationType>(code);
  return Status::OK();
}

Status Get(BinaryReader& r, AttributeCondition* v) {
  uint8_t op = 0;
  TC_RETURN_IF_ERROR(GetFields(r, &v->attribute, &op));
  if (op > static_cast<uint8_t>(ConditionOp::kGe)) {
    return Status::Corruption("bad condition op");
  }
  v->op = static_cast<ConditionOp>(op);
  return GetValue(r, &v->value);
}

Status Get(BinaryReader& r, UsageRule* v) {
  return GetFields(r, &v->id, &v->subjects, &v->rights, &v->conditions,
                   &v->not_before, &v->not_after, &v->max_uses,
                   &v->obligations);
}

Bytes Policy::Serialize() const {
  return Encode(kPolicyMagic, id, owner, rules);
}

Result<Policy> Policy::Deserialize(const Bytes& data) {
  std::string magic;
  Policy p;
  TC_RETURN_IF_ERROR(Decode(data, &magic, &p.id, &p.owner, &p.rules));
  if (magic != kPolicyMagic) return Status::Corruption("bad policy magic");
  return p;
}

Bytes Policy::Hash() const { return crypto::Sha256Hash(Serialize()); }

std::string DecisionPoint::StateKey(const std::string& policy_id,
                                    const std::string& rule_id,
                                    const std::string& subject) {
  return policy_id + "\x1f" + rule_id + "\x1f" + subject;
}

uint64_t DecisionPoint::UseCount(const std::string& policy_id,
                                 const std::string& rule_id,
                                 const std::string& subject) const {
  auto it = use_counts_.find(StateKey(policy_id, rule_id, subject));
  return it == use_counts_.end() ? 0 : it->second;
}

Decision DecisionPoint::EvaluateInternal(const Policy& policy,
                                         const AccessRequest& request,
                                         bool consume) {
  std::string deny_reason = "no matching rule";
  for (const UsageRule& rule : policy.rules) {
    // Authorization: subject list.
    if (!rule.subjects.empty() &&
        std::find(rule.subjects.begin(), rule.subjects.end(),
                  request.subject) == rule.subjects.end()) {
      continue;
    }
    // Authorization: right.
    if (std::find(rule.rights.begin(), rule.rights.end(), request.right) ==
        rule.rights.end()) {
      continue;
    }
    // Conditions: time window.
    if (request.now < rule.not_before || request.now > rule.not_after) {
      deny_reason = "rule " + rule.id + ": outside validity window";
      continue;
    }
    // Conditions: attributes.
    bool conditions_ok = true;
    for (const AttributeCondition& cond : rule.conditions) {
      auto attr = request.attributes.find(cond.attribute);
      if (attr == request.attributes.end()) {
        conditions_ok = false;
        deny_reason = "rule " + rule.id + ": missing attribute " +
                      cond.attribute;
        break;
      }
      auto cmp = ComparePolicyValues(attr->second, cond.value);
      if (!cmp.ok()) {
        conditions_ok = false;
        deny_reason = "rule " + rule.id + ": " + cmp.status().message();
        break;
      }
      bool ok = false;
      switch (cond.op) {
        case ConditionOp::kEq:
          ok = *cmp == 0;
          break;
        case ConditionOp::kNe:
          ok = *cmp != 0;
          break;
        case ConditionOp::kLt:
          ok = *cmp < 0;
          break;
        case ConditionOp::kLe:
          ok = *cmp <= 0;
          break;
        case ConditionOp::kGt:
          ok = *cmp > 0;
          break;
        case ConditionOp::kGe:
          ok = *cmp >= 0;
          break;
      }
      if (!ok) {
        conditions_ok = false;
        deny_reason = "rule " + rule.id + ": condition on " + cond.attribute +
                      " not satisfied";
        break;
      }
    }
    if (!conditions_ok) continue;
    // Mutability: usage counter.
    if (rule.max_uses > 0) {
      uint64_t used = UseCount(policy.id, rule.id, request.subject);
      if (used >= rule.max_uses) {
        deny_reason = "rule " + rule.id + ": usage quota exhausted";
        continue;
      }
    }
    if (consume && rule.max_uses > 0) {
      ++use_counts_[StateKey(policy.id, rule.id, request.subject)];
    }
    return Decision{true, rule.id, rule.obligations, ""};
  }
  return Decision{false, "", {}, deny_reason};
}

Decision DecisionPoint::EvaluateAndConsume(const Policy& policy,
                                           const AccessRequest& request) {
  return EvaluateInternal(policy, request, /*consume=*/true);
}

Decision DecisionPoint::Peek(const Policy& policy,
                             const AccessRequest& request) const {
  return const_cast<DecisionPoint*>(this)->EvaluateInternal(policy, request,
                                                            /*consume=*/false);
}

Bytes DecisionPoint::ExportState() const {
  return Encode(std::vector<std::pair<std::string, uint64_t>>(
      use_counts_.begin(), use_counts_.end()));
}

Status DecisionPoint::ImportState(const Bytes& data) {
  std::vector<std::pair<std::string, uint64_t>> counts;
  TC_RETURN_IF_ERROR(Decode(data, &counts));
  use_counts_ = std::map<std::string, uint64_t>(counts.begin(), counts.end());
  return Status::OK();
}

}  // namespace tc::policy
