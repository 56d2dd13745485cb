// Output checks. Every check recomputes what the program answered on
// a fresh tuner::Session, apart from the measured path, or tests a
// property the method must have; none compares against a stored copy
// of an earlier answer. A check returns nullopt when the output holds
// and a one-line reason when it does not.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "hhc/tile_sizes.hpp"
#include "service/protocol.hpp"
#include "tuner/session.hpp"

namespace perfbench {

using CheckResult = std::optional<std::string>;

// Bitwise equality of two doubles.
bool same_bits(double a, double b);

// Re-measures `reported.dp` with Session::evaluate_point on `fresh`
// and demands the same feasibility and bit-identical talg/texec/gflops.
CheckResult check_remeasured(repro::tuner::Session& fresh,
                             const repro::tuner::EvaluatedPoint& reported);

// The exact answer of a within-delta search: every tile of `tiles`
// crossed with every thread config of the session's device, measured
// without pruning (Session::evaluate_points), folded with the
// first-strictly-better rule in (tile, thread) order.
repro::tuner::EvaluatedPoint exact_best(
    repro::tuner::Session& s, std::span<const repro::hhc::TileSizes> tiles);

// The result payload of a successful response envelope
// {"v":1,"id":<id>,"ok":true,"kind":<kind>,"result":<payload>}, or
// nullopt for an error or a response that does not match the request.
std::optional<std::string> result_payload(const std::string& response,
                                          const std::string& id,
                                          const std::string& kind);

// Checks one served answer against a recomputation on a fresh session:
//   best_tile  the model sweep's space, candidates and argmin; the
//              winner re-measured, and with `exact` the winner equal to
//              exact_best over the candidates (seeds never enter);
//   predict    the point re-measured (or the model verdict re-priced);
//   compare    all five strategy points re-measured;
//   pipeline   talg/texec equal to the sum of repeat x stage best, in
//              declaration order.
CheckResult check_answer(const repro::service::Request& req,
                         const std::string& payload, bool exact);

// A store hit must replay the cold answer of its request byte for byte.
CheckResult check_hit(const std::string& payload, const std::string& cold);

}  // namespace perfbench
