#include "core/router.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/label_walk.hpp"
#include "topology/kary_ncube.hpp"
#include "topology/mesh3d.hpp"

namespace mcnet::mcast {

namespace {

constexpr Algorithm kMeshAlgorithms[] = {
    Algorithm::kMultiUnicast,    Algorithm::kBroadcast,  Algorithm::kSortedMP,
    Algorithm::kSortedMC,        Algorithm::kGreedyST,   Algorithm::kXFirstMT,
    Algorithm::kDividedGreedyMT, Algorithm::kDualPath,   Algorithm::kMultiPath,
    Algorithm::kFixedPath,       Algorithm::kDCXFirstTree};

constexpr Algorithm kCubeAlgorithms[] = {
    Algorithm::kMultiUnicast, Algorithm::kBroadcast, Algorithm::kSortedMP,
    Algorithm::kSortedMC,     Algorithm::kGreedyST,  Algorithm::kLenTree,
    Algorithm::kDualPath,     Algorithm::kMultiPath, Algorithm::kFixedPath,
    Algorithm::kEcubeMT,      Algorithm::kBinomialBroadcast};

constexpr Algorithm kLabeledAlgorithms[] = {
    Algorithm::kMultiUnicast, Algorithm::kBroadcast, Algorithm::kDualPath,
    Algorithm::kMultiPath, Algorithm::kFixedPath};

template <std::size_t N>
bool contains(const Algorithm (&list)[N], Algorithm a) {
  return std::find(std::begin(list), std::end(list), a) != std::end(list);
}

template <std::size_t N>
void require(const Algorithm (&list)[N], Algorithm a, const topo::Topology& t) {
  if (!contains(list, a)) {
    throw std::invalid_argument("algorithm " + std::string(algorithm_name(a)) +
                                " is not applicable to " + t.name());
  }
}

/// Per-thread scratch of the suite routers' plan(), reused across calls.
struct PlanScratch {
  RequestScratch normalize;
  MulticastRequest normalized;
  MultiPathScratch paths;
};

/// plan() of a suite router: the label walk for the path algorithms, the
/// route -> plan conversion for the rest.
template <class Topo, class Lab>
void plan_with_suite(const Router& router, const Topo& topology, const Lab& labeling,
                     const MulticastRequest& request, worm::WormPlan& out) {
  thread_local PlanScratch scratch;
  const MulticastRequest& req =
      request.normalize_into(topology.num_nodes(), scratch.normalize, scratch.normalized);
  if (!plan_label_paths(topology, labeling, router.algorithm(), req, router.channel_copies(),
                        scratch.paths, out)) {
    router.plan_route(router.route(req), out);
  }
}

}  // namespace

void Router::plan(const MulticastRequest& request, worm::WormPlan& out) const {
  plan_route(route(request), out);
}

void Router::plan_route(const MulticastRoute& route, worm::WormPlan& out) const {
  worm::route_to_plan(topology(), route, channel_copies(), out);
}

std::vector<worm::WormSpec> Router::specs(const MulticastRoute& route) const {
  return worm::make_worm_specs(topology(), route, channel_copies());
}

RouteBatch Router::route_many(std::span<const MulticastRequest> requests) const {
  RouteBatch batch;
  batch.reserve(requests.size());
  for (const MulticastRequest& request : requests) batch.append(route(request));
  return batch;
}

bool algorithm_deadlock_free(Algorithm a) {
  switch (a) {
    case Algorithm::kMultiUnicast:
    case Algorithm::kDualPath:
    case Algorithm::kMultiPath:
    case Algorithm::kFixedPath:
    case Algorithm::kDCXFirstTree:
      return true;
    default:
      return false;
  }
}

std::vector<Algorithm> supported_algorithms(const topo::Topology& topology) {
  const auto to_vector = [](const auto& list) {
    return std::vector<Algorithm>(std::begin(list), std::end(list));
  };
  if (dynamic_cast<const topo::Mesh2D*>(&topology) != nullptr) {
    return to_vector(kMeshAlgorithms);
  }
  if (dynamic_cast<const topo::Hypercube*>(&topology) != nullptr) {
    return to_vector(kCubeAlgorithms);
  }
  if (dynamic_cast<const topo::Mesh3D*>(&topology) != nullptr ||
      dynamic_cast<const topo::KAryNCube*>(&topology) != nullptr) {
    return to_vector(kLabeledAlgorithms);
  }
  return {};
}

std::unique_ptr<Router> make_router(const topo::Topology& topology, Algorithm algorithm,
                                    std::uint8_t copies) {
  if (const auto* mesh = dynamic_cast<const topo::Mesh2D*>(&topology)) {
    return std::make_unique<MeshRouter>(*mesh, algorithm, copies);
  }
  if (const auto* cube = dynamic_cast<const topo::Hypercube*>(&topology)) {
    return std::make_unique<CubeRouter>(*cube, algorithm, copies);
  }
  if (const auto* mesh3 = dynamic_cast<const topo::Mesh3D*>(&topology)) {
    return std::make_unique<LabeledRouter>(
        *mesh3,
        std::make_unique<ham::MixedRadixGrayLabeling>(
            ham::MixedRadixGrayLabeling::for_mesh3d(*mesh3)),
        algorithm, copies);
  }
  if (const auto* kary = dynamic_cast<const topo::KAryNCube*>(&topology)) {
    return std::make_unique<LabeledRouter>(
        *kary,
        std::make_unique<ham::MixedRadixGrayLabeling>(
            ham::MixedRadixGrayLabeling::for_kary(*kary)),
        algorithm, copies);
  }
  throw std::invalid_argument("make_router: unsupported topology " + topology.name());
}

MeshRouter::MeshRouter(const topo::Mesh2D& mesh, Algorithm algorithm, std::uint8_t copies)
    : SuiteRouterBase(algorithm, copies), suite_(mesh) {
  require(kMeshAlgorithms, algorithm, mesh);
}

MulticastRoute MeshRouter::route(const MulticastRequest& request) const {
  return suite_.route(algorithm_, request.normalized(suite_.mesh().num_nodes()));
}

RouteBatch MeshRouter::route_many(std::span<const MulticastRequest> requests) const {
  const std::uint32_t n = suite_.mesh().num_nodes();
  RouteBatch batch;
  batch.reserve(requests.size());
  RequestScratch normalize;
  MulticastRequest storage;
  RouteScratch scratch;
  for (const MulticastRequest& request : requests) {
    batch.append(suite_.route(algorithm_, request.normalize_into(n, normalize, storage),
                              scratch));
  }
  return batch;
}

void MeshRouter::plan(const MulticastRequest& request, worm::WormPlan& out) const {
  plan_with_suite(*this, suite_.mesh(), suite_.labeling(), request, out);
}

CubeRouter::CubeRouter(const topo::Hypercube& cube, Algorithm algorithm, std::uint8_t copies)
    : SuiteRouterBase(algorithm, copies), suite_(cube) {
  require(kCubeAlgorithms, algorithm, cube);
}

MulticastRoute CubeRouter::route(const MulticastRequest& request) const {
  return suite_.route(algorithm_, request.normalized(suite_.cube().num_nodes()));
}

RouteBatch CubeRouter::route_many(std::span<const MulticastRequest> requests) const {
  const std::uint32_t n = suite_.cube().num_nodes();
  RouteBatch batch;
  batch.reserve(requests.size());
  RequestScratch normalize;
  MulticastRequest storage;
  RouteScratch scratch;
  for (const MulticastRequest& request : requests) {
    batch.append(suite_.route(algorithm_, request.normalize_into(n, normalize, storage),
                              scratch));
  }
  return batch;
}

void CubeRouter::plan(const MulticastRequest& request, worm::WormPlan& out) const {
  plan_with_suite(*this, suite_.cube(), suite_.labeling(), request, out);
}

LabeledRouter::LabeledRouter(const topo::Topology& topology,
                             std::unique_ptr<ham::Labeling> labeling, Algorithm algorithm,
                             std::uint8_t copies)
    : SuiteRouterBase(algorithm, copies), suite_(topology, std::move(labeling)) {
  require(kLabeledAlgorithms, algorithm, topology);
}

MulticastRoute LabeledRouter::route(const MulticastRequest& request) const {
  return suite_.route(algorithm_, request.normalized(suite_.topology().num_nodes()));
}

RouteBatch LabeledRouter::route_many(std::span<const MulticastRequest> requests) const {
  const std::uint32_t n = suite_.topology().num_nodes();
  RouteBatch batch;
  batch.reserve(requests.size());
  RequestScratch normalize;
  MulticastRequest storage;
  RouteScratch scratch;
  for (const MulticastRequest& request : requests) {
    batch.append(suite_.route(algorithm_, request.normalize_into(n, normalize, storage),
                              scratch));
  }
  return batch;
}

void LabeledRouter::plan(const MulticastRequest& request, worm::WormPlan& out) const {
  plan_with_suite(*this, suite_.topology(), suite_.labeling(), request, out);
}

}  // namespace mcnet::mcast
