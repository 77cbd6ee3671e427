// Homomorphism search: the workhorse behind query evaluation, chase trigger
// enumeration, CQ containment, and the universality checks in tests.
//
// A homomorphism maps non-constant terms (variables, labeled nulls) to
// terms, is the identity on constants, and must send every atom of the
// source onto a fact of the target instance. The search is a backtracking
// join: atoms are processed most-bound-first and candidate facts come from
// the target's positional index.
#ifndef RBDA_LOGIC_HOMOMORPHISM_H_
#define RBDA_LOGIC_HOMOMORPHISM_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "data/instance.h"

namespace rbda {

/// An atom is structurally a fact whose arguments may be variables.
using Atom = Fact;

using Substitution = std::unordered_map<Term, Term, TermHash>;

/// Applies `sub` to `t`: mapped terms are rewritten, others kept.
Term ApplyToTerm(const Substitution& sub, Term t);

/// Applies `sub` to every argument of `atom`.
Atom ApplyToAtom(const Substitution& sub, const Atom& atom);

/// Applies `sub` to every atom.
std::vector<Atom> ApplyToAtoms(const Substitution& sub,
                               const std::vector<Atom>& atoms);

/// Finds one homomorphism from `atoms` into `target` extending `seed`
/// (if given). Returns std::nullopt if none exists.
std::optional<Substitution> FindHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed = nullptr);

/// Enumerates homomorphisms from `atoms` into `target` extending `seed`.
/// The callback returns true to continue enumeration, false to stop.
/// Returns the number of homomorphisms visited.
size_t ForEachHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution* seed,
    const std::function<bool(const Substitution&)>& callback);

/// True if there is a homomorphism from instance `source` into `target`
/// (constants fixed, nulls and variables mappable).
bool InstanceHomomorphismExists(const Instance& source,
                                const Instance& target);

}  // namespace rbda

#endif  // RBDA_LOGIC_HOMOMORPHISM_H_
