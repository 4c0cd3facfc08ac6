// Claimed-bounds contract for pluggable spanner backends.
//
// Every backend in src/backends advertises the guarantees its
// construction is supposed to provide — plane or not, connectivity
// preservation, a max-degree cap, length- and hop-stretch bounds — as a
// BackendClaims value, and one generic audit_backend call checks a
// finished spanner against exactly those advertised claims. A backend is
// never audited against another backend's guarantees: Baswana–Sen does
// not claim planarity, so no planarity certificate is attempted for it,
// while Biniaz-style and Kanj–Perković do claim it and must produce a
// crossing-free embedding on every input, degenerate ones included.
//
// BackendClaims lives here rather than in src/backends so the auditor
// stays below the engines it certifies: src/backends can link gs_verify
// without a cycle.
#pragma once

#include "verify/audit.h"

namespace geospanner::verify {

/// Guarantees a spanner backend advertises for its output graph. A zero
/// numeric field means "no claim" and the corresponding check is
/// skipped; boolean claims are checked only when set. Numeric bounds
/// follow the suite's convention: paper constants are existential, so
/// backends pin the empirical constants their construction actually
/// achieves (a regression past a pin is a semantic change worth a look).
struct BackendClaims {
    /// Every spanner edge is a UDG edge (same node set, same points).
    bool subgraph_of_udg = true;
    /// Pairs connected in the UDG stay connected in the spanner.
    bool connected = true;
    /// No two spanner edges properly cross in the straight-line
    /// embedding (collinear overlap and shared endpoints excluded, as in
    /// graph::crossing_edge_pairs).
    bool plane = false;
    /// Max node degree; 0 = unbounded / no claim.
    std::size_t max_degree = 0;
    /// Euclidean length stretch vs UDG shortest paths for pairs more
    /// than one radius apart (the paper's far-pair convention);
    /// 0 = no claim.
    double max_length_stretch = 0.0;
    /// Hop stretch claim of the form hops(u,v) <= factor * h + offset
    /// with h the UDG hop distance; factor 0 = no claim.
    double hop_stretch_factor = 0.0;
    double hop_stretch_offset = 0.0;
};

/// Audits one backend's finished spanner against its own advertised
/// claims. Emits one AuditReport per claimed property:
///  * backend_subgraph     — same points, every edge present in the UDG;
///  * backend_connectivity — UDG components are never split;
///  * backend_planarity    — geometric planarity certificate;
///  * backend_degree       — per-node degree cap;
///  * backend_hop_stretch  — per-pair hops <= factor * h + offset;
///  * backend_length_stretch — far-pair length stretch cap.
/// Stretch checks sweep every source (all-pairs BFS/Dijkstra), so they
/// are meant for test-sized instances; benches measure sampled stretch
/// instead. `options.radius` should carry the build radius (0 recovers
/// it from the longest UDG edge, which only loosens the far-pair
/// filter).
[[nodiscard]] StageAudit audit_backend(const graph::GeometricGraph& udg,
                                       const graph::GeometricGraph& spanner,
                                       const BackendClaims& claims,
                                       const AuditOptions& options = {});

}  // namespace geospanner::verify
