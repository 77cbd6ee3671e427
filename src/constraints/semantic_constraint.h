// Semantic (FO-style) constraints beyond TGDs/FDs — the §8 frontier.
//
// Example 8.1 uses counting constraints ("P has exactly 7 tuples; if U
// meets P then 4 of P's tuples are in U") that no TGD/FD can express, and
// shows choice simplification fails there. Our reasoning engines do not
// decide answerability for these, and no generator or oracle consults
// them. They are the executable model of Example 8.1: `semantic_test`
// checks that its instances satisfy them and that, on those instances,
// the plan complete for bound 5 loses completeness under choice
// simplification.
#ifndef RBDA_CONSTRAINTS_SEMANTIC_CONSTRAINT_H_
#define RBDA_CONSTRAINTS_SEMANTIC_CONSTRAINT_H_

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "logic/conjunctive_query.h"

namespace rbda {

class SemanticConstraint {
 public:
  virtual ~SemanticConstraint() = default;
  virtual bool SatisfiedBy(const Instance& data) const = 0;
  virtual std::string Describe(const Universe& universe) const = 0;
};

using SemanticConstraintPtr = std::shared_ptr<const SemanticConstraint>;

/// The number of distinct answers to `query` lies in [min, max].
class AnswerCountConstraint : public SemanticConstraint {
 public:
  AnswerCountConstraint(ConjunctiveQuery query, size_t min_count,
                        std::optional<size_t> max_count)
      : query_(std::move(query)),
        min_count_(min_count),
        max_count_(max_count) {}

  bool SatisfiedBy(const Instance& data) const override;
  std::string Describe(const Universe& universe) const override;

 private:
  ConjunctiveQuery query_;
  size_t min_count_;
  std::optional<size_t> max_count_;
};

/// If the (Boolean) premise holds, the inner constraint must too.
class ConditionalConstraint : public SemanticConstraint {
 public:
  ConditionalConstraint(ConjunctiveQuery premise, SemanticConstraintPtr inner)
      : premise_(std::move(premise)), inner_(std::move(inner)) {}

  bool SatisfiedBy(const Instance& data) const override;
  std::string Describe(const Universe& universe) const override;

 private:
  ConjunctiveQuery premise_;
  SemanticConstraintPtr inner_;
};

/// Checks a whole set.
bool AllSatisfied(const std::vector<SemanticConstraintPtr>& constraints,
                  const Instance& data);

/// The Example 8.1 constraints over unary relations P and U:
///   |P| = `p_size`; if ∃x P(x) ∧ U(x) then |{x : P(x) ∧ U(x)}| ≥
///   `overlap`.  (Paper values: p_size = 7, overlap = 4.)
std::vector<SemanticConstraintPtr> Example81Constraints(Universe* universe,
                                                        RelationId p,
                                                        RelationId u,
                                                        size_t p_size = 7,
                                                        size_t overlap = 4);

}  // namespace rbda

#endif  // RBDA_CONSTRAINTS_SEMANTIC_CONSTRAINT_H_
