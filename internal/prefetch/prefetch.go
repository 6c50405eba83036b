// Package prefetch implements the engine's read-ahead policies: the
// decision half of getpage's prefetch path. A Policy watches each
// file's access pattern at the read-ahead trigger points and answers
// one question — how many clusters to issue ahead of the reader — while
// the engine keeps the mechanism (bmap, startRead, nextrio bookkeeping).
//
// Three policies exist:
//
//   - Fixed (the default, the paper's nextrio behaviour): one cluster
//     ahead, always. Byte-identical to the pre-policy engine.
//   - Adaptive: a per-file sequentiality-confidence detector feeding a
//     ramping window — arm on the first sequential trigger, issue one
//     cluster on the second, double on each further confirmed trigger
//     up to a ceiling, collapse to zero on a random seek, and clamp by
//     free memory and the per-file write-limit headroom so prefetch
//     never starves demand I/O.
//   - Off: no read-ahead at all (WithReadAhead(prefetch.Off())).
//
// Policies are deterministic state machines over simulated inputs only:
// same access stream, same decisions, same telemetry — the ra_window
// event stream replays byte-identically across same-seed runs.
package prefetch

import "strings"

// Limits carries the resource state a policy may clamp its window
// against. The engine fills it from live machine state at each trigger.
type Limits struct {
	// ClusterBlocks is the effective cluster size in blocks (maxcontig
	// capped by the driver's maxphys).
	ClusterBlocks int
	// BlockBytes is the file system block size.
	BlockBytes int
	// FreePages is the VM free-list length in pages.
	FreePages int
	// MemLow reports free memory near the pageout threshold (the same
	// predicate that gates free-behind).
	MemLow bool
	// WriteHeadroom is the file's write-limit semaphore headroom in
	// bytes, or -1 when no write limit is mounted. Prefetch competes
	// with demand writes for the disk queue; a policy that respects the
	// headroom cannot queue more speculative bytes than the mount lets
	// one file queue deliberately.
	WriteHeadroom int64
}

// Decision is a policy's answer at a read-ahead trigger.
type Decision struct {
	// Clusters is how many clusters to issue, starting at the window
	// cursor (nextrio). Zero means arm the trigger but issue nothing.
	Clusters int
	// Confidence is the detector's sequentiality confidence (consecutive
	// confirmed sequential triggers); fixed policies report 0.
	Confidence int
	// ClampedMem and ClampedSem report that the window was reduced by
	// the free-memory or write-limit clamp (telemetry).
	ClampedMem bool
	ClampedSem bool
}

// Policy decides the prefetch window at each read-ahead trigger. The
// engine consults it only when Config.ReadAhead is on and the engine is
// clustered; implementations must be deterministic and must not touch
// simulated time or scheduling.
type Policy interface {
	// Name returns the policy's wire name ("fixed", "adaptive").
	Name() string
	// Trigger is consulted when the access stream reaches the read-ahead
	// trigger point: the start of the last prefetched cluster, or the
	// start of the file. seq reports whether the access matched the
	// block-level predictor (lbn == nextr).
	Trigger(ino int32, seq bool, lim Limits) Decision
	// Random informs the policy of a non-sequential cache miss — the
	// signal that the reader seeked away from the detected stream.
	Random(ino int32)
	// Forget drops any per-file state (purge, truncate, remove).
	Forget(ino int32)
}

// Off returns the nil policy: WithReadAhead(prefetch.Off()) disables
// read-ahead entirely (the engine's ReadAhead switch turns off).
func Off() Policy { return nil }

// ParsePolicy maps a command-line policy name to a per-machine policy
// factory. "fixed" (or "") is a nil factory: keep the engine's default
// one-cluster policy. "adaptive" builds a fresh default-tuned adaptive
// policy on every call, and "off" returns Off. Names are
// case-insensitive; the second result is false for unknown names.
//
// It is a factory rather than a Policy because policies carry per-file
// state that must never be shared across machines.
func ParsePolicy(name string) (func() Policy, bool) {
	switch strings.ToLower(name) {
	case "fixed", "":
		return nil, true
	case "adaptive":
		return func() Policy { return NewAdaptive(AdaptiveConfig{}) }, true
	case "off":
		return Off, true
	}
	return nil, false
}

// fixed is the paper's policy: one cluster ahead on every trigger,
// no per-file state, no clamps — exactly the pre-policy nextrio code.
type fixed struct{}

// NewFixed returns the default one-cluster policy.
func NewFixed() Policy { return fixed{} }

func (fixed) Name() string { return "fixed" }

// Trigger always asks for one cluster; the legacy behaviour never
// clamps, so a machine with no telemetry attached behaves bit-for-bit
// like the pre-policy engine.
func (fixed) Trigger(ino int32, seq bool, lim Limits) Decision {
	return Decision{Clusters: 1}
}

func (fixed) Random(ino int32) {}
func (fixed) Forget(ino int32) {}

// AdaptiveConfig tunes the adaptive policy. The zero value selects the
// defaults below.
type AdaptiveConfig struct {
	// StartClusters is the window issued on the first confirmed
	// sequential trigger (the second sequential trigger since the last
	// collapse). Default 1.
	StartClusters int
	// MaxClusters is the ramp ceiling. Default 8 (120 blocks ahead at
	// the paper's 15-block clusters).
	MaxClusters int
	// MemDivisor caps the window at FreePages/MemDivisor pages so a
	// deep window cannot flush the cache; when memory is low the window
	// additionally collapses to at most one cluster. Default 4.
	MemDivisor int
	// ConfidenceCap saturates the confidence counter (and therefore the
	// ramp exponent). Default 16.
	ConfidenceCap int
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.StartClusters <= 0 {
		c.StartClusters = 1
	}
	if c.MaxClusters <= 0 {
		c.MaxClusters = 8
	}
	if c.MemDivisor <= 0 {
		c.MemDivisor = 4
	}
	if c.ConfidenceCap <= 0 {
		c.ConfidenceCap = 16
	}
	return c
}

// Adaptive is the confidence-driven policy: per-file detectors keyed by
// inode number. Detectors are looked up, never iterated, so the map
// leaks no host ordering into the simulation.
type Adaptive struct {
	cfg   AdaptiveConfig
	files map[int32]*detector
}

// detector is one file's sequentiality state: the count of consecutive
// confirmed sequential triggers since the last random seek.
type detector struct {
	hits int
}

// NewAdaptive returns an adaptive policy with the given tuning.
func NewAdaptive(cfg AdaptiveConfig) *Adaptive {
	return &Adaptive{cfg: cfg.withDefaults(), files: make(map[int32]*detector)}
}

func (a *Adaptive) Name() string { return "adaptive" }

func (a *Adaptive) file(ino int32) *detector {
	d, ok := a.files[ino]
	if !ok {
		d = &detector{}
		a.files[ino] = d
	}
	return d
}

// Trigger ramps the window: the first sequential trigger after a
// collapse arms the detector without issuing (a single accidental
// next-block touch — the head of a two-block random burst — must not
// pay a full cluster), the second issues StartClusters, and each
// further *granted* window doubles the next one up to MaxClusters —
// confidence steps once per window issued, not once per consulted
// block, so a freshly confirmed stream cannot leap straight to the
// ceiling and overshoot. A trigger whose access did not match the
// predictor neither ramps nor issues.
func (a *Adaptive) Trigger(ino int32, seq bool, lim Limits) Decision {
	d := a.file(ino)
	if !seq {
		return Decision{Clusters: 0, Confidence: d.hits}
	}
	if d.hits == 0 {
		d.hits = 1
		return Decision{Clusters: 0, Confidence: 1}
	}
	want := a.cfg.StartClusters
	for i := 1; i < d.hits && want < a.cfg.MaxClusters; i++ {
		want *= 2
	}
	if want > a.cfg.MaxClusters {
		want = a.cfg.MaxClusters
	}
	dec := clamp(Decision{Clusters: want, Confidence: d.hits}, a.cfg, lim)
	if dec.Clusters > 0 && d.hits < a.cfg.ConfidenceCap {
		d.hits++
	}
	return dec
}

// clamp applies the resource limits to a desired window.
func clamp(dec Decision, cfg AdaptiveConfig, lim Limits) Decision {
	cb := lim.ClusterBlocks
	if cb < 1 {
		cb = 1
	}
	// Free-memory clamp: the window may use at most a MemDivisor'th of
	// free memory, and at most one cluster when memory is already low.
	maxBlocks := lim.FreePages / cfg.MemDivisor
	if lim.MemLow && maxBlocks > cb {
		maxBlocks = cb
	}
	if byMem := maxBlocks / cb; dec.Clusters > byMem {
		dec.Clusters = byMem
		dec.ClampedMem = true
	}
	// Write-limit clamp: never queue more speculative bytes than the
	// per-file write limit would let a writer queue deliberately.
	if lim.WriteHeadroom >= 0 && lim.BlockBytes > 0 {
		bySem := int(lim.WriteHeadroom / int64(cb*lim.BlockBytes))
		if dec.Clusters > bySem {
			dec.Clusters = bySem
			dec.ClampedSem = true
		}
	}
	// A confirmed sequential stream never drops below one cluster: that
	// is the fixed baseline, and the fixed policy prefetches one cluster
	// into LRU-stolen pages regardless of free-list length. Clamping a
	// confirmed stream to zero would make adaptive strictly worse than
	// fixed whenever memory is tight — exactly when the steady-state
	// free list is short.
	if dec.Clusters < 1 {
		dec.Clusters = 1
	}
	return dec
}

// Random collapses the file's window to zero: the next sequential run
// must re-confirm before prefetch resumes.
func (a *Adaptive) Random(ino int32) {
	if d, ok := a.files[ino]; ok {
		d.hits = 0
	}
}

// Forget drops the file's detector (purge, truncate, remove).
func (a *Adaptive) Forget(ino int32) {
	delete(a.files, ino)
}

// Confidence exposes a file's current confidence (tests and tools).
func (a *Adaptive) Confidence(ino int32) int {
	if d, ok := a.files[ino]; ok {
		return d.hits
	}
	return 0
}
