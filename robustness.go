// Package robustness is the public facade of this repository: a Go
// implementation of the FePIA procedure and the robustness metric of
//
//	S. Ali, A. A. Maciejewski, H. J. Siegel, and J.-K. Kim,
//	"Definition of a Robustness Metric for Resource Allocation",
//	IPPS/IPDPS 2003.
//
// A mapping of applications to machines is robust, with respect to a set
// of performance features Φ and against a perturbation parameter π, when
// every feature stays within its tolerable bounds as π drifts from its
// assumed value. The paper quantifies "how robust": the robustness radius
// r_μ(φ, π) (Eq. 1) is the smallest Euclidean distance from the assumed
// operating point π^orig to any boundary relationship f(π) = β, and the
// robustness metric ρ_μ(Φ, π) (Eq. 2) is the minimum radius over Φ.
//
// # Deriving a metric (the FePIA procedure)
//
//  1. Fe — list the performance features as Feature values with their
//     tolerable bounds ⟨β^min, β^max⟩;
//  2. P  — describe the uncertain quantity as a Perturbation with its
//     assumed operating point;
//  3. I  — give each feature an Impact function f(π) (use LinearImpact for
//     affine relationships, FuncImpact otherwise);
//  4. A  — call Analyze; the result carries every radius, the binding
//     ("critical") feature, the boundary point π*, and ρ.
//
// Affine impacts are solved exactly with the point-to-hyperplane formula;
// convex impacts with a sequential-linearisation solver; declared
// non-convex impacts additionally run a simulated-annealing fallback, as
// §3.2 of the paper sanctions.
//
// # Batch analysis and concurrency
//
// Comparing many mappings is the metric's whole point (§4 evaluates 1000
// random mappings per experiment), and every radius of Eq. 1 is an
// independent subproblem. AnalyzeBatch evaluates many analyses over a
// bounded worker pool with deterministic, input-ordered results and
// context cancellation; an optional RadiusCache memoises structurally
// identical radius subproblems across the batch with LRU eviction and
// hit/miss accounting.
//
// Concurrency safety: Analyze, ComputeRadius, and AnalyzeBatch are safe
// to call from multiple goroutines, and a single *RadiusCache may be
// shared across concurrent AnalyzeBatch calls. The inputs themselves must
// not be mutated while an analysis is running, and custom Impact
// implementations must be safe for concurrent Eval/Gradient calls (pure
// functions — the paper's impacts all are).
//
// # Contexts, typed errors, and the wire format
//
// Every analysis entry point has a context-aware form (AnalyzeContext,
// MultiAnalyzeContext, AnalyzeBatch) — the plain functions delegate with
// context.Background(). Failures split into two typed families: client
// mistakes are ValidationError values matching ErrInvalidSpec, engine
// failures are SolveError values; classify with errors.As. ParseSpec and
// EncodeAnalysis expose the JSON schema shared by the CLIs and the fepiad
// HTTP service (cmd/fepiad, docs/SERVICE.md), which serves this exact
// analysis — byte-identical results — as an online oracle.
//
// The two systems the paper derives metrics for are available as
// sub-analyses: the independent-application allocation of §3.1 through
// EvaluateIndependentAllocation (closed-form Eq. 6/7) and the HiPer-D
// model of §3.2 through the HiPerD* aliases. The experiment harness that
// regenerates the paper's figures and table lives in internal/experiments
// with runnable front-ends under cmd/.
package robustness

import (
	"context"

	"fepia/internal/batch"
	"fepia/internal/cluster"
	"fepia/internal/core"
	"fepia/internal/etcgen"
	"fepia/internal/hcs"
	"fepia/internal/hiperd"
	"fepia/internal/indalloc"
	"fepia/internal/spec"
	"fepia/internal/stats"
	"fepia/internal/vecmath"
)

// Core FePIA vocabulary (step 1–3 inputs, step 4 outputs).
type (
	// Feature is a performance feature φ ∈ Φ with bounds and impact.
	Feature = core.Feature
	// Bounds is the tolerable variation ⟨β^min, β^max⟩.
	Bounds = core.Bounds
	// Perturbation is a perturbation parameter π ∈ Π.
	Perturbation = core.Perturbation
	// Impact is the relationship φ = f(π).
	Impact = core.Impact
	// LinearImpact is an affine impact function (exact analysis).
	LinearImpact = core.LinearImpact
	// FuncImpact adapts an arbitrary function as an impact.
	FuncImpact = core.FuncImpact
	// Options tunes the analysis (norm choice, solver budgets).
	Options = core.Options
	// RadiusResult is one feature's robustness radius r_μ(φ, π).
	RadiusResult = core.RadiusResult
	// Analysis is the aggregate step-4 outcome with ρ_μ(Φ, π).
	Analysis = core.Analysis
	// BoundKind says which boundary relationship binds a radius.
	BoundKind = core.BoundKind
	// ParameterSet couples a perturbation with the features it affects.
	ParameterSet = core.ParameterSet
	// MultiAnalysis aggregates analyses over several parameters.
	MultiAnalysis = core.MultiAnalysis
	// JointPerturbation concatenates several perturbation parameters for
	// simultaneous analysis (the case the paper defers to [1]).
	JointPerturbation = core.JointPerturbation
	// BlockImpact lifts a single-parameter impact into a joint space.
	BlockImpact = core.BlockImpact
)

// Re-exported BoundKind values.
const (
	AtMax           = core.AtMax
	AtMin           = core.AtMin
	AlreadyViolated = core.AlreadyViolated
	Unreachable     = core.Unreachable
)

// NewLinearImpact validates and builds the affine impact
// f(π) = coeffs·π + offset.
func NewLinearImpact(coeffs []float64, offset float64) (*LinearImpact, error) {
	return core.NewLinearImpact(coeffs, offset)
}

// NoMin returns one-sided bounds with only an upper limit β^max.
func NoMin(max float64) Bounds { return core.NoMin(max) }

// NoMax returns one-sided bounds with only a lower limit β^min.
func NoMax(min float64) Bounds { return core.NoMax(min) }

// ComputeRadius evaluates Eq. 1 for a single feature.
func ComputeRadius(f Feature, p Perturbation, opts Options) (RadiusResult, error) {
	return core.ComputeRadius(f, p, opts)
}

// Analyze evaluates Eq. 2: every feature's radius and their minimum ρ.
// It delegates to AnalyzeContext with context.Background(); callers that
// need to bound or cancel a solve (servers, schedulers) should pass their
// own context to AnalyzeContext.
func Analyze(features []Feature, p Perturbation, opts Options) (Analysis, error) {
	return core.Analyze(features, p, opts)
}

// AnalyzeContext is Analyze under a context: cancellation or deadline
// expiry is observed between per-feature radius computations, and the ctx
// error is returned verbatim (match it with errors.Is against
// context.Canceled / context.DeadlineExceeded).
func AnalyzeContext(ctx context.Context, features []Feature, p Perturbation, opts Options) (Analysis, error) {
	return core.AnalyzeContext(ctx, features, p, opts)
}

// MultiAnalyze runs Analyze per perturbation parameter — the
// multi-parameter extension the paper defers to [1]. It delegates to
// MultiAnalyzeContext with context.Background().
func MultiAnalyze(sets []ParameterSet, opts Options) (MultiAnalysis, error) {
	return core.MultiAnalyze(sets, opts)
}

// MultiAnalyzeContext is MultiAnalyze under a context, threaded into every
// per-parameter analysis.
func MultiAnalyzeContext(ctx context.Context, sets []ParameterSet, opts Options) (MultiAnalysis, error) {
	return core.MultiAnalyzeContext(ctx, sets, opts)
}

// Batch-analysis vocabulary (see the package comment's batch section).
type (
	// BatchJob is one analysis unit for AnalyzeBatch: a feature set Φ
	// against one perturbation parameter π.
	BatchJob = batch.Job
	// BatchOptions tunes AnalyzeBatch: worker count, radius cache, and
	// the per-analysis core options.
	BatchOptions = batch.Options
	// RadiusCache memoises per-feature radius computations with LRU
	// eviction; safe for concurrent use and for sharing across batches.
	// It memoises only impacts it can identify by content: a
	// LinearImpact, keyed by its coefficients and offset, and a
	// FuncImpact with a non-empty Fingerprint. Any other impact, a bare
	// closure included, is solved on every call and appears in no
	// CacheStats count.
	RadiusCache = batch.Cache
	// CacheStats reports a cache's hit/miss counters and occupancy.
	CacheStats = batch.CacheStats
)

// NewRadiusCache returns a radius memoization cache bounded to the given
// number of entries (≤ 0 selects the default capacity). The cache is
// sharded for multi-core scaling with a shard count derived from
// GOMAXPROCS; use NewRadiusCacheSharded to pin it.
func NewRadiusCache(capacity int) *RadiusCache { return batch.NewCache(capacity) }

// NewRadiusCacheSharded returns a radius cache with an explicit shard
// count (rounded up to a power of two, clamped to the entry budget;
// ≤ 0 selects the GOMAXPROCS-derived default). Results are identical
// for any shard count — sharding only spreads lock contention —
// and concurrent misses on one subproblem are coalesced into a single
// solve regardless of sharding.
func NewRadiusCacheSharded(capacity, shards int) *RadiusCache {
	return batch.NewCacheSharded(capacity, shards)
}

// AnalyzeBatch evaluates every job concurrently over a bounded worker
// pool and returns one Analysis per job, in input order. Each result is
// identical to Analyze(job.Features, job.Perturbation, opts.Core) — only
// the schedule (and, with a cache, the amount of repeated solving)
// differs. The first failing job cancels the batch, as does ctx.
func AnalyzeBatch(ctx context.Context, jobs []BatchJob, opts BatchOptions) ([]Analysis, error) {
	return batch.Analyze(ctx, jobs, opts)
}

// ConcatPerturbations builds a joint perturbation parameter from several
// components, enabling genuinely simultaneous variation (features may mix
// blocks freely). See JointWeights for making blocks with different units
// commensurable.
func ConcatPerturbations(name string, ps ...Perturbation) (JointPerturbation, error) {
	return core.ConcatPerturbations(name, ps...)
}

// NewBlockImpact reuses a single-parameter impact inside a joint analysis
// (all other components are ignored).
func NewBlockImpact(j JointPerturbation, block int, inner Impact) (*BlockImpact, error) {
	return core.NewBlockImpact(j, block, inner)
}

// JointWeights builds a weighted ℓ₂ norm that makes a joint parameter's
// blocks commensurable: distance 1 ≈ one characteristic unit of relative
// change in any block.
func JointWeights(j JointPerturbation) (Norm, error) {
	return core.JointWeights(j)
}

// Typed errors. Every analysis failure is one of two families: the input
// was wrong (ValidationError, matching ErrInvalidSpec — a client mistake),
// or the engine failed on a valid input (SolveError — the minimum-norm
// solver could not finish). Services map the first to HTTP 400 and the
// second to HTTP 500 with errors.As; cmd/fepiad does exactly that.
type (
	// ValidationError is a spec parse/validation failure with the JSON
	// field path of the offending value.
	ValidationError = spec.ValidationError
	// SolveError is an engine-side solver failure while computing a
	// robustness radius.
	SolveError = core.SolveError
)

// Error sentinels, matched with errors.Is.
var (
	// ErrInvalidSpec matches every ValidationError.
	ErrInvalidSpec = spec.ErrInvalidSpec
	// ErrNormUnsupported is returned when a non-ℓ₂ norm is combined with
	// a non-linear impact function.
	ErrNormUnsupported = core.ErrNormUnsupported
)

// Wire format. ParseSpec and EncodeAnalysis are the JSON schema shared by
// library users, the CLIs, and the fepiad HTTP service: a SystemSpec
// document in, an AnalysisJSON result out (see internal/spec for the
// format reference, docs/SERVICE.md for the HTTP endpoints).
type (
	// SystemSpec is a parsed, validated system description ready for
	// analysis (Features, Perturbation, Options).
	SystemSpec = spec.System
	// SpecFile is the raw decoded form of a spec document, useful for
	// assembling batch requests programmatically.
	SpecFile = spec.File
	// AnalysisJSON is the machine-readable analysis result document.
	AnalysisJSON = spec.ResultJSON
	// RadiusJSON is one feature's radius inside an AnalysisJSON.
	RadiusJSON = spec.RadiusJSON
)

// ParseSpec decodes and validates a JSON system description (FePIA steps
// 1–3 as data). Failures are *ValidationError values carrying the JSON
// field path of the offending value.
func ParseSpec(data []byte) (*SystemSpec, error) { return spec.Parse(data) }

// EncodeAnalysis converts an analysis into the machine-readable JSON
// result document — the same shape fepiad serves. Infinite radii are
// emitted as −1 with the bound "unreachable" to stay plain-JSON.
func EncodeAnalysis(name string, a Analysis) AnalysisJSON { return spec.Encode(name, a) }

// Cluster serving. fepiad scales horizontally as a ring of nodes, each
// owning a consistent-hash arc of radius-cache keys; requests for keys
// a node does not own are forwarded to the owner, and every /v1 result
// carries a ResponseMeta block attributing the serving node, relay, and
// cache provenance (docs/CLUSTER.md). These aliases let clients of a
// fepiad cluster decode response metadata, reason about ring placement,
// and classify peer failures without importing internal packages.
type (
	// ResponseMeta is the serving-metadata block on every /v1 result:
	// which node answered, whether the request was forwarded to its ring
	// owner or served degraded, and how the radius cache was involved
	// (miss, coalesced, kernel, hit).
	ResponseMeta = spec.ResponseMeta
	// ClusterPeer is one node of a fepiad ring: an identity plus the
	// base URL peers reach it on.
	ClusterPeer = cluster.Peer
	// ClusterConfig describes a node's view of the ring — self identity,
	// full membership, and the forwarding retry/breaker tuning.
	ClusterConfig = cluster.Config
	// ClusterRing is the consistent-hash ring assigning route keys to
	// node identities; all nodes with the same membership agree on every
	// assignment.
	ClusterRing = cluster.Ring
	// PeerError reports a failed forward to a ring peer, after retries.
	// fepiad maps it to 502 (peer unreachable) or 503 (peer circuit
	// open); match with errors.As.
	PeerError = cluster.PeerError
)

// NewClusterRing builds the consistent-hash ring over the given node
// identities with replicas virtual points per node (0 = default).
// Membership order does not matter: every permutation yields the same
// ring, which is what lets each node compute ownership locally.
func NewClusterRing(nodes []string, replicas int) (*ClusterRing, error) {
	return cluster.NewRing(nodes, replicas)
}

// ParseClusterPeers decodes the -peers flag form "id=url,id=url,..."
// into ring membership.
func ParseClusterPeers(s string) ([]ClusterPeer, error) { return cluster.ParsePeers(s) }

// Norm is the perturbation-space norm interface accepted by Options.
type Norm = vecmath.Norm

// Norms accepted by Options.Norm. The paper fixes ℓ₂; the others are an
// extension for sensitivity studies (supported analytically for linear
// impacts via dual norms).
type (
	// L2 is the Euclidean norm of Eq. 1.
	L2 = vecmath.L2
	// L1 is the Manhattan norm.
	L1 = vecmath.L1
	// LInf is the maximum norm.
	LInf = vecmath.LInf
)

// IndependentAllocation is the §3.1 analysis of one mapping.
type IndependentAllocation = indalloc.Result

// EvaluateIndependentAllocation runs the §3.1 closed-form analysis
// (Eqs. 6–7): applications with the given ETC matrix (etc[i][j] = time of
// application i on machine j), assignment assign[i] = machine of
// application i, and tolerance τ ≥ 1 on the predicted makespan.
func EvaluateIndependentAllocation(etc [][]float64, assign []int, tau float64) (IndependentAllocation, error) {
	inst, err := hcs.NewInstance(etcgen.Matrix(etc))
	if err != nil {
		return IndependentAllocation{}, err
	}
	m, err := hcs.NewMapping(inst, assign)
	if err != nil {
		return IndependentAllocation{}, err
	}
	return indalloc.Evaluate(m, tau)
}

// HiPer-D (§3.2) vocabulary.
type (
	// HiPerDSystem is a HiPer-D problem instance.
	HiPerDSystem = hiperd.System
	// HiPerDMapping assigns applications to machines.
	HiPerDMapping = hiperd.Mapping
	// HiPerDResult is the §3.2 analysis: ρ, slack, λ*.
	HiPerDResult = hiperd.Result
	// HiPerDGenParams configures the §4.3 instance generator.
	HiPerDGenParams = hiperd.GenParams
)

// PaperHiPerDParams returns the §4.3 instance configuration (3 sensors
// with the published rates and loads, 20 applications, 19 paths,
// 5 machines).
func PaperHiPerDParams() HiPerDGenParams { return hiperd.PaperGenParams() }

// GenerateHiPerD samples a HiPer-D instance deterministically from seed.
func GenerateHiPerD(seed int64, params HiPerDGenParams) (*HiPerDSystem, error) {
	return hiperd.GenerateSystem(stats.NewRNG(seed), params)
}

// RandomHiPerDMapping draws a uniformly random mapping (the §4.1
// generator).
func RandomHiPerDMapping(seed int64, s *HiPerDSystem) HiPerDMapping {
	return hiperd.RandomMapping(stats.NewRNG(seed), s)
}

// EvaluateHiPerD runs the full §3.2 analysis of a mapping.
func EvaluateHiPerD(s *HiPerDSystem, m HiPerDMapping) (HiPerDResult, error) {
	return hiperd.Evaluate(s, m)
}
