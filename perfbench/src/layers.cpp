#include "layers.hpp"

namespace perfbench {

void accumulate(repro::tuner::SweepStats& into,
                const repro::tuner::SweepStats& s) {
  into.model_points += s.model_points;
  into.machine_points += s.machine_points;
  into.cache_hits += s.cache_hits;
  into.model_seconds += s.model_seconds;
  into.machine_seconds += s.machine_seconds;
  into.profile_builds += s.profile_builds;
  into.profile_steps += s.profile_steps;
  into.profile_hits += s.profile_hits;
  into.geometry_seconds += s.geometry_seconds;
  into.pricing_seconds += s.pricing_seconds;
  into.points_pruned += s.points_pruned;
  into.bound_seconds += s.bound_seconds;
  into.seeds_offered += s.seeds_offered;
  into.seeds_admitted += s.seeds_admitted;
}

void add_per_layer(RunResult& r, const Layers& l, std::uint64_t ops) {
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  const auto per = [n](double v) { return v / n; };
  const auto ms = [n](double s) { return s * 1e3 / n; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const char* kSummed = "summed over workers (may exceed wall), ms";
  const char* kWall = "wall, ms";
  const char* kSched = "count, schedule-dependent";
  const char* kDet = "count, deterministic";
  const auto& s = l.sweep;

  // gpusim geometry.
  r.add("gpusim.geometry_ms", ms(s.geometry_seconds), "ms/op", kSummed);
  r.add("gpusim.profile_builds", per(static_cast<double>(s.profile_builds)),
        "1/op", kSched);
  r.add("gpusim.profile_steps", per(static_cast<double>(s.profile_steps)),
        "1/op", kSched);
  r.add("gpusim.profile_hits", per(static_cast<double>(s.profile_hits)),
        "1/op", kSched);
  // gpusim bound.
  r.add("gpusim.bound_ms", ms(s.bound_seconds), "ms/op", kSummed);
  r.add("tuner.points_pruned", per(static_cast<double>(s.points_pruned)),
        "1/op", kSched);
  r.add("tuner.prune_ratio",
        ratio(static_cast<double>(s.points_pruned),
              static_cast<double>(s.points_pruned + s.machine_points)),
        "ratio", "pruned / requested, schedule-dependent");
  // gpusim pricing.
  r.add("gpusim.pricing_ms", ms(s.pricing_seconds), "ms/op", kSummed);
  r.add("tuner.fresh_pricings",
        per(static_cast<double>(s.machine_points - s.cache_hits)), "1/op",
        kSched);
  // tuner model, calibration, memo.
  r.add("tuner.model_ms", ms(s.model_seconds), "ms/op", kWall);
  r.add("tuner.model_points", per(static_cast<double>(s.model_points)),
        "1/op", kDet);
  r.add("tuner.calibrate_ms",
        ratio(l.calibrate_s * 1e3, static_cast<double>(l.calibrations)),
        "ms/call", "wall, mean per calibration");
  r.add("tuner.calibrations", static_cast<double>(l.calibrations), "count",
        "count per run (set-up included), deterministic");
  r.add("tuner.machine_points", per(static_cast<double>(s.machine_points)),
        "1/op", kSched);
  r.add("tuner.cache_hits", per(static_cast<double>(s.cache_hits)), "1/op",
        kSched);
  // common thread pool.
  r.add("common.pool_efficiency",
        ratio(l.pool_cpu_s, l.pool_wall_s * static_cast<double>(l.pool_workers)),
        "ratio", "CPU / (wall x workers)");
  // service index.
  r.add("service.index_lookup_ms", ms(l.index_lookup_s), "ms/op", kWall);
  r.add("service.index_lookups", per(static_cast<double>(l.index_lookups)),
        "1/op", kDet);
  r.add("service.index_lines_read",
        per(static_cast<double>(l.index_lines_read)), "1/op", kDet);
  r.add("service.seeds_offered", per(static_cast<double>(s.seeds_offered)),
        "1/op", kDet);
  r.add("service.seeds_admitted", per(static_cast<double>(s.seeds_admitted)),
        "1/op", kDet);
  // service sessions.
  r.add("service.session_create_ms", ms(l.session_create_s), "ms/op", kWall);
  r.add("service.sessions_created",
        per(static_cast<double>(l.sessions_created)), "1/op", kDet);
  // service store.
  r.add("service.store_load_ms", ms(l.store_load_s), "ms/op", kWall);
  r.add("service.store_hits", per(static_cast<double>(l.store_hits)), "1/op",
        kDet);
  r.add("service.store_misses", per(static_cast<double>(l.store_misses)),
        "1/op", kDet);
  r.add("service.store_save_ms", ms(l.store_save_s), "ms/op", kWall);
  r.add("service.index_append_ms", ms(l.index_append_s), "ms/op", kWall);
  r.add("service.store_writes", per(static_cast<double>(l.store_writes)),
        "1/op", kDet);
  r.add("service.store_bytes", static_cast<double>(l.store_bytes), "bytes",
        "bytes at the end of the run");
  r.add("service.index_bytes", static_cast<double>(l.index_bytes), "bytes",
        "bytes at the end of the run");
  // service protocol and compute.
  r.add("service.parse_ms", ms(l.parse_s), "ms/op", kWall);
  r.add("service.render_ms", ms(l.render_s), "ms/op", kWall);
  r.add("service.compute_ms", ms(l.compute_s), "ms/op", kWall);
  // pipeline planner.
  r.add("pipeline.plan_ms", ms(l.plan_s), "ms/op", kWall);
  r.add("pipeline.plans", per(static_cast<double>(l.plans)), "1/op", kDet);
  r.add("pipeline.distinct_tasks",
        ratio(static_cast<double>(l.distinct_tasks),
              static_cast<double>(l.plans)),
        "1/plan", kDet);
}

}  // namespace perfbench
