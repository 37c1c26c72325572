#include "inputs.h"

#include <random>
#include <utility>

#include "syslog/behaviors.h"
#include "syslog/entity.h"

namespace tgm::e2e {

Isomorph Isomorph::FromSeed(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  Isomorph iso;
  iso.mul = rng() | 1;
  iso.add = rng();
  iso.shift = static_cast<Timestamp>(rng() % (std::uint64_t{1} << 32));
  return iso;
}

std::int64_t Isomorph::Entity(NodeId v) const {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 62) - 1;
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(v) * mul + add) & kMask);
}

namespace {

Records ToRecords(const TemporalGraph& graph, const LabelDict& dict,
                  const Isomorph& iso) {
  Records records;
  records.reserve(graph.edge_count());
  for (const TemporalEdge& e : graph.edges()) {
    records.push_back(api::EventRecord{
        iso.Entity(e.src), iso.Entity(e.dst), dict.Name(graph.label(e.src)),
        dict.Name(graph.label(e.dst)),
        e.elabel == kNoEdgeLabel ? std::string() : dict.Name(e.elabel),
        e.ts + iso.shift});
  }
  return records;
}

}  // namespace

Day GenerateDay(int instances, std::uint64_t content_seed,
                const Isomorph& iso) {
  SyslogWorld world;
  DatasetConfig config;
  config.test_instances = instances;
  config.seed = content_seed;
  TestLog log = BuildTestLog(world, config);
  for (TruthInstance& t : log.truth) {
    t.t_begin += iso.shift;
    t.t_end += iso.shift;
  }
  return Day{content_seed, ToRecords(log.graph, world.dict(), iso),
             std::move(log.truth)};
}

Training GenerateTraining(int runs_per_behavior, int background_graphs,
                          const Isomorph& iso) {
  SyslogWorld world;
  DatasetConfig config;
  config.runs_per_behavior = runs_per_behavior;
  config.background_graphs = background_graphs;
  config.seed = kTrainingSeed;
  const TrainingData data = BuildTrainingData(world, config);
  Training training;
  for (const auto& runs : data.positives) {
    training.positives.emplace_back();
    for (const TemporalGraph& g : runs) {
      training.positives.back().push_back(ToRecords(g, world.dict(), iso));
    }
  }
  for (const TemporalGraph& g : data.background) {
    training.background.push_back(ToRecords(g, world.dict(), iso));
  }
  return training;
}

std::int64_t EventCount(const std::vector<Records>& graphs) {
  std::int64_t n = 0;
  for (const Records& r : graphs) n += static_cast<std::int64_t>(r.size());
  return n;
}

std::string BehaviorLabel(int b) {
  return BehaviorName(AllBehaviors()[static_cast<std::size_t>(b)]);
}

std::string PositivesCorpus(int b) { return "train/" + BehaviorLabel(b); }

std::string ArtifactPath(const std::string& dir, int b) {
  return dir + "/" + BehaviorLabel(b) + ".tquery";
}

}  // namespace tgm::e2e
