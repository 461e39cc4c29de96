// Package tenant is the multi-tenant admission layer of rfserved:
// API-key authentication, per-tenant reservation accounting, token-bucket
// rate limiting and fair-share scheduling. It holds no HTTP or simulation
// code — internal/server wires its pieces into the request path, and
// internal/dispatch reads the admission metadata it threads through
// contexts to order the fleet queue.
//
// The pieces:
//
//   - Registry — tenants loaded from a JSON file, each with one or more
//     API keys (so keys rotate without a restart gap), a priority tier
//     and resolved Limits. Lookup compares fixed-size key digests in
//     constant time over every key, so response timing leaks neither how
//     close a guess came nor whether its length matched a real key.
//   - Reserver — bounded per-tenant counts (concurrent sweeps, queued
//     jobs) whose map entries are deleted when a count returns to zero,
//     so memory stays bounded under many-tenant churn.
//   - Limiter — per-tenant token buckets for submit/stream-open rates.
//   - FairQueue — a slot pool that orders waiting tenants by (priority
//     tier, fewest slots already held), so a light tenant's small sweep
//     is never parked behind a heavy tenant's monster sweep. A slot is
//     one thread of simulation: one job holds one slot.
//   - Admission — the per-request metadata (tenant name, priority)
//     carried through contexts from the HTTP layer down to the
//     scheduler and the fleet queue.
//
// Every caller without a key is the "anonymous" tenant; a deployment
// with no tenants file serves anonymous unlimited, which keeps existing
// single-tenant setups working unchanged.
//
// See docs/ARCHITECTURE.md for how admission fits into the full request
// path.
package tenant
