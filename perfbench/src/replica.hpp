// The traced serving path: the daemon's request path (parse -> store
// lookup -> index lookup -> session -> compute -> store and index
// write -> render, as in service::ServiceCore) replayed in-process
// through the service layer's public functions, each call timed into
// a Layers record. One request at a time, like a single closed-loop
// client; no queue and no coalescing, which that client never uses.
// Its responses are byte-compared with the daemon's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "layers.hpp"
#include "service/index.hpp"
#include "service/store.hpp"
#include "tuner/session.hpp"

namespace perfbench {

class ServiceReplica {
 public:
  // Serves from the store in `store_dir` (and its index sidecar).
  ServiceReplica(const std::string& store_dir, Layers& layers);

  // One request line in, one response line out.
  std::string handle(const std::string& line);

  // Folds the sessions' SweepStats and the store/index sizes into the
  // layers record; call once, after the measured phase.
  void finish();

 private:
  Layers& l_;
  repro::service::ResultStore store_;
  repro::service::SimilarityIndex index_;
  std::uint64_t index_lines_ = 0;
  std::map<std::string, std::unique_ptr<repro::tuner::Session>> sessions_;
};

}  // namespace perfbench
