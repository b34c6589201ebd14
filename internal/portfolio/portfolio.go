// Package portfolio is the library's one orchestrator of the termination
// deciders. The same stage code runs on two schedules:
//
//   - Analyze, the cheap-first cascade. Tier 0 runs the syntactic and
//     sufficient-condition checks (existential-freeness, weak acyclicity,
//     joint acyclicity, the never-firing jointree prune, MFA) in static cost
//     order. Tier 1 is the probe: the guarded seed scan,
//     guarded.DecideContext, cut at k = 64 steps — accepting when every seed
//     saturates within k, rejecting when a seed's k-prefix carries a
//     guard-chain pump certificate, routing onward otherwise. Tier 2 runs
//     the expensive semantic deciders — sticky's Büchi emptiness test, then
//     the guarded seed search at the full budget — one after another in
//     canonical order. The first decisive stage ends the run, and every
//     later stage is skipped.
//   - Report, the exhaustive schedule behind the flat report (core.Report).
//     Every Tier 0 check runs in the same order with no early exit, the
//     probe is skipped, and the Tier 2 deciders run one after another in
//     canonical order. Each stage adds its reason, and a decisive stage that
//     disagrees with an earlier verdict adds a CONTRADICTION line instead of
//     masking it.
//
// The cascade's contract is conclusion identity: for every input set, the
// Conclusion (and the error, if any) equals Report's with the same budgets,
// bit for bit. The cascade earns its speed purely from stopping early, never
// from answering differently. Three invariants enforce this:
//
//   - every cheap stage either abstains or fixes the conclusion Report
//     reaches: the Tier 0 checks are the checks Report runs (sound for
//     acceptance only), an accepting Tier 1 probe is bit-compatible with the
//     full guarded procedure by the deterministic-prefix argument on
//     guarded.DecideContext, and a rejecting probe decides through the same
//     guard-chain pump lemma the full procedure trusts on its own
//     budget-truncated runs (see tier1). Stopping after any decisive cheap
//     stage therefore cannot change the conclusion, only which stage gets
//     credit;
//   - the probe rejects only on a certificate, never on bare budget
//     exhaustion — the certificate string rides along as
//     StageOutcome.Evidence. The certificate is budget-independent, so in
//     the corner where the probe's budget-B counterpart run would saturate
//     past k and bounded seed-exhaustion would miss the divergence, the
//     probe errs toward the pump, which stays an unchecked certificate
//     until ROADMAP item 1(b) replays it (item 1's Program A is a
//     terminating set that carries one); the package's quick-test sweeps
//     pin that this corner never separates the two on the random program
//     generators, and the conformance corpus pins it per family;
//   - Tier 2 runs its deciders in the canonical order [sticky, guarded]:
//     a decider runs only once every earlier one has completed without
//     deciding, which is exactly Report's sequential order.
//
// Every stage runs on the caller's goroutine: an analysis never splits
// across workers, and concurrency comes only from concurrent calls.
//
// Both schedules read only the rules: CT^res_∀∀ quantifies over every
// database, so facts never enter a run or its cache key. The per-database
// question, CT^res_∀∃, is chase.SearchTerminatingDerivation's. With a
// cache, each schedule memoises its whole run as one stage ledger, keyed
// by the set and a salt over the budgets and the schedule: a warm call
// replays the recorded stages without running any of them.
package portfolio

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"airct/internal/acyclicity"
	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/guarded"
	"airct/internal/sticky"
	"airct/internal/tgds"
)

// Options configures a portfolio run. Analyze and Report read the same
// budget fields, so a cascade conclusion stays comparable to a flat report
// computed with the same numbers.
type Options struct {
	// Guarded tunes the guarded stage. The Tier 1 probe runs it at
	// min(probeSteps, MaxSteps). Its Cache field is overwritten with
	// Options.Cache.
	Guarded guarded.DecideOptions
	// Sticky tunes the sticky stage.
	Sticky sticky.DecideOptions
	// Cache, when set, memoises the whole run as one stage ledger, keyed by
	// the set fingerprint and a salt folding in every budget and the
	// schedule. The guarded stages report their engine activity to it.
	Cache *chase.Cache
}

const (
	// probeSteps is the Tier 1 probe's per-seed step budget k.
	probeSteps = 64
	// mfaSteps bounds the MFA check's semi-oblivious critical-instance
	// chase.
	mfaSteps = 20_000
)

func resolved(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// salt folds every verdict-relevant budget into the cache key, and for
// Report's exhaustive schedule a marker after them, so the two schedules'
// ledgers never serve each other; Analyze's bytes carry no marker. The
// guarded seed-pool cap, the MFA bound and the probe budget are constants;
// they stay in the key so entries stored while they were settable still
// hit.
func (o Options) salt(exhaustive bool) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d",
		resolved(o.Guarded.MaxSteps, guarded.DefaultMaxSteps), guarded.MaxSeeds,
		resolved(o.Sticky.MaxStates, sticky.DefaultMaxStates), mfaSteps, probeSteps)
	if exhaustive {
		h.Write([]byte("|report"))
	}
	return h.Sum64()
}

// StageOutcome records one stage's attempt: what ran, whether it decided,
// and what it cost. Stage records are diagnostics — only Conclusion and
// DecidedBy carry the semantic result.
type StageOutcome struct {
	// Stage names the check ("full", "weak-acyclicity", "joint-acyclicity",
	// "jointree-prune", "mfa", "probe", "sticky", "guarded").
	Stage string
	// Tier is the cascade tier that ran the stage (0, 1 or 2).
	Tier int
	// Decided is true when this stage fixed the conclusion.
	Decided bool
	// Conclusion is the stage's own verdict contribution (Unknown when the
	// stage was non-decisive or skipped).
	Conclusion core.Conclusion
	// Detail explains the outcome in the flat report's reason vocabulary.
	Detail string
	// Steps counts the stage's dominant work unit (chase steps, Büchi
	// states, seeds — see each stage).
	Steps int
	// Duration is the stage's wall-clock cost when it ran live (zero for
	// cache-replayed stages).
	Duration time.Duration
	// Seeds, Saturated and Depth are the Tier 1 probe's diagnostics: the
	// distinct seed pool size, how many seeds' whole batteries saturated
	// within the probe budget, and the deepest saturating chase (the pump
	// depth — the shortest certifying prefix — maxed with the saturation
	// depths on a rejecting probe). Zero for every other stage; preserved
	// across cache replays.
	Seeds     int
	Saturated int
	Depth     int
	// Evidence carries the (unchecked) guard-chain pump certificate on a
	// rejecting Tier 1 probe (also embedded in Detail) and, under Report
	// only, the sticky or guarded stage's witness line; empty otherwise.
	// Preserved across cache replays.
	Evidence string
}

// Result is the portfolio's combined answer.
type Result struct {
	// Conclusion is pinned bit-identical to Report's on the same set and
	// budgets.
	Conclusion core.Conclusion
	// DecidedBy names the stage that fixed the conclusion ("" when
	// Unknown).
	DecidedBy string
	// Stages lists every attempted stage in cascade order.
	Stages []StageOutcome
	// CacheHit is true when the whole run was served from the cross-run
	// cache without executing any stage.
	CacheHit bool
}

// tier0Stages is the static cost order of the Tier 0 checks, the order
// both schedules run them in.
var tier0Stages = []string{"full", "weak-acyclicity", "joint-acyclicity", "jointree-prune", "mfa"}

// runner accumulates one run's state.
type runner struct {
	set  *tgds.Set
	opts Options
	res  *Result
	// exhaustive is set under Report: its sticky and guarded stages carry
	// their witness lines as Evidence.
	exhaustive bool
}

// runSchedule runs the cascade, or Report's exhaustive schedule. With a
// cache it first looks the set's ledger up under the schedule's salt and
// replays it on a hit; a run that finishes records its ledger there.
func runSchedule(ctx context.Context, set *tgds.Set, opts Options, exhaustive bool) (*Result, error) {
	if set.Len() == 0 && !set.HasEGDs() {
		return nil, fmt.Errorf("portfolio: empty TGD set")
	}
	setFP, salt := set.Fingerprint(), opts.salt(exhaustive)
	if opts.Cache != nil {
		if so, ok := opts.Cache.LookupStageOutcomes(setFP, salt); ok {
			return replay(so), nil
		}
	}
	opts.Guarded.Cache = opts.Cache
	r := &runner{set: set, opts: opts, res: &Result{}, exhaustive: exhaustive}
	schedule := r.cascade
	if exhaustive {
		schedule = r.everyStage
	}
	if err := schedule(ctx); err != nil {
		return nil, err
	}
	if opts.Cache != nil {
		opts.Cache.StoreStageOutcomes(setFP, salt, record(r.res))
	}
	return r.res, nil
}

// Analyze runs the cascade. The conclusion (and error behaviour) is pinned
// to Report's with the same budgets; see the package comment for the
// argument. A cancelled call returns ctx's error.
func Analyze(ctx context.Context, set *tgds.Set, opts Options) (*Result, error) {
	return runSchedule(ctx, set, opts, false)
}

func (r *runner) cascade(ctx context.Context) error {
	for _, name := range tier0Stages {
		if r.decided() {
			return nil
		}
		r.tier0Stage(name)
	}
	if r.decided() {
		return nil
	}
	if err := r.tier1(ctx); err != nil {
		return err
	}
	if r.decided() {
		return nil
	}
	return r.tier2(ctx)
}

// Report runs the exhaustive schedule and returns the flat report: the
// class flags, the conclusion and one reason per finding, in stage order.
// Every Tier 0 check runs, the probe does not, and the sticky and guarded
// deciders run one after another whatever earlier stages concluded, so a
// disagreement surfaces as a CONTRADICTION line. With a cache, a warm call
// replays the recorded stages and folds them into the same report. A
// cancelled call returns ctx's error.
func Report(ctx context.Context, set *tgds.Set, opts Options) (*core.Report, error) {
	res, err := runSchedule(ctx, set, opts, true)
	if err != nil {
		return nil, err
	}
	return flatReport(set, res.Stages), nil
}

// everyStage is Report's schedule: the Tier 0 checks in static order with
// no early exit, stopping before the TGD-only ones on an EGD set, then
// every Tier 2 decider.
func (r *runner) everyStage(ctx context.Context) error {
	for _, name := range tier0Stages {
		if r.set.HasEGDs() && name == "joint-acyclicity" {
			break
		}
		r.tier0Stage(name)
	}
	for _, d := range r.tier2Deciders() {
		s, err := d.run(ctx)
		if err != nil {
			return err
		}
		r.conclude(s)
	}
	return nil
}

// flatReport folds the stages of one run of Report's schedule, live or
// replayed, into the flat report. The class flags and the EGD lines come
// from the set, everything else from the stages.
func flatReport(set *tgds.Set, stages []StageOutcome) *core.Report {
	rep := &core.Report{
		SingleHead:      set.IsSingleHead(),
		Guarded:         set.IsGuarded(),
		Linear:          set.IsLinear(),
		Sticky:          set.IsSticky(),
		Full:            set.IsFull(),
		FrontierGuarded: set.IsFrontierGuarded(),
		EGDs:            set.NumEGDs(),
	}
	for _, s := range stages {
		fold(rep, s)
		if s.Stage == "weak-acyclicity" && set.HasEGDs() {
			// Joint acyclicity, the prune and MFA close the order; on an
			// EGD set one reason line stands for all three.
			rep.Reasons = append(rep.Reasons, "EGDs present: joint acyclicity, the never-firing prune and MFA are TGD-only baselines and were skipped")
		}
	}
	if set.HasEGDs() && rep.Conclusion == core.Unknown {
		rep.Reasons = append(rep.Reasons, "the guarded and sticky decision procedures are TGD-only and do not run on sets with EGDs")
	}
	if rep.Conclusion == core.Unknown && len(rep.Reasons) == 0 {
		rep.Reasons = append(rep.Reasons, "outside the guarded and sticky classes; no sufficient condition fired (CT^res_∀∀ is undecidable in general, Theorem 3.6)")
	}
	return rep
}

func (r *runner) decided() bool { return r.res.DecidedBy != "" }

// conclude fixes the conclusion on the first decisive stage. A stage that
// finished decisively after the conclusion was already fixed (Report runs
// every decider) is recorded with Decided cleared: its Conclusion field
// still shows its own verdict, but only one stage ever "decided".
func (r *runner) conclude(s StageOutcome) {
	if !r.decided() && s.Decided {
		r.res.Conclusion = s.Conclusion
		r.res.DecidedBy = s.Stage
	} else {
		s.Decided = false
	}
	r.res.Stages = append(r.res.Stages, s)
}

// fold adds one recorded stage to the flat report. A stage is decisive
// when its own Conclusion is known, whatever conclude did to Decided: a
// decisive stage sets the conclusion and gives its reason, or a
// CONTRADICTION line when it disagrees with an earlier verdict. A
// non-decisive Tier 2 decider still gives its reason (an incomplete
// exploration, an exhausted budget); a non-decisive Tier 0 check gives
// none. A stage's Evidence is its witness line.
func fold(rep *core.Report, s StageOutcome) {
	decisive := s.Conclusion != core.Unknown
	switch s.Stage {
	case "weak-acyclicity":
		rep.WeaklyAcyclic = decisive
	case "joint-acyclicity":
		rep.JointlyAcyclic = decisive
	case "mfa":
		rep.MFA = decisive
	}
	switch {
	case !decisive && s.Tier == 2:
		rep.Reasons = append(rep.Reasons, s.Detail)
	case !decisive:
	case rep.Conclusion != core.Unknown && rep.Conclusion != s.Conclusion:
		rep.Reasons = append(rep.Reasons, fmt.Sprintf("CONTRADICTION: %s says %v but prior verdict was %v", s.Detail, s.Conclusion, rep.Conclusion))
	default:
		rep.Conclusion = s.Conclusion
		rep.Reasons = append(rep.Reasons, s.Detail)
	}
	if s.Evidence != "" {
		rep.Witnesses = append(rep.Witnesses, s.Evidence)
	}
}

// tier0Stage runs one cheap syntactic or sufficient-condition check. Every
// Tier 0 check is sound for acceptance only, so a decisive stage always
// concludes Terminates.
func (r *runner) tier0Stage(name string) {
	s := StageOutcome{Stage: name, Tier: 0}
	start := time.Now()
	r.tier0Check(name, &s)
	s.Duration = time.Since(start)
	r.conclude(s)
}

func (r *runner) tier0Check(name string, s *StageOutcome) {
	set := r.set
	switch name {
	case "full":
		// Sufficient with EGDs too: a TGD step of an existential-free set
		// invents no term and an EGD step merges two terms into one, so the
		// term count never grows, every EGD step shrinks it, and a finite
		// term set admits finitely many atoms.
		if set.IsFull() {
			s.Decided = true
			s.Conclusion = core.Terminates
			if set.HasEGDs() {
				s.Detail = "existential-free TGDs with EGDs: no invented values, and equality steps strictly shrink the term count"
			} else {
				s.Detail = "full (existential-free) set: the chase cannot invent values"
			}
		} else {
			s.Detail = "set has existentials"
		}
	case "weak-acyclicity":
		// Sufficient with arbitrary EGDs: weak acyclicity of the TGDs bounds
		// every chase sequence polynomially whatever EGD steps interleave
		// (Fagin, Kolaitis, Miller and Popa, "Data exchange: semantics and
		// query answering", as discussed in arXiv:0901.3984).
		if acyclicity.IsWeaklyAcyclic(set) {
			s.Decided = true
			s.Conclusion = core.Terminates
			if set.HasEGDs() {
				s.Detail = "weak acyclicity of the TGDs (sufficient with arbitrary EGDs, Fagin et al.)"
			} else {
				s.Detail = "weak acyclicity (sufficient condition)"
			}
		} else {
			s.Detail = "dependency graph has a special-edge cycle"
		}
	case "joint-acyclicity":
		if set.HasEGDs() {
			s.Detail = "skipped: joint acyclicity is a TGD-only baseline (set has EGDs)"
			return
		}
		if acyclicity.IsJointlyAcyclic(set) {
			s.Decided = true
			s.Conclusion = core.Terminates
			s.Detail = "joint acyclicity (sufficient condition)"
		} else {
			s.Detail = "existential dependency graph is cyclic"
		}
	case "jointree-prune":
		if set.HasEGDs() {
			s.Detail = "skipped: the never-firing prune is a TGD-only baseline (set has EGDs)"
			return
		}
		pruned, removed := acyclicity.PruneNeverFiring(set)
		if len(removed) == 0 {
			s.Detail = "no never-firing TGDs"
			return
		}
		s.Steps = len(removed)
		switch {
		case pruned == nil:
			s.Decided = true
			s.Detail = fmt.Sprintf("jointree prune: all %d TGDs are never-firing (head folds into body over the frontier)", len(removed))
		case pruned.IsFull():
			s.Decided = true
			s.Detail = fmt.Sprintf("jointree prune: %d never-firing TGDs removed; remainder is existential-free", len(removed))
		case acyclicity.IsWeaklyAcyclic(pruned):
			s.Decided = true
			s.Detail = fmt.Sprintf("jointree prune: %d never-firing TGDs removed; remainder is weakly acyclic", len(removed))
		case acyclicity.IsJointlyAcyclic(pruned):
			s.Decided = true
			s.Detail = fmt.Sprintf("jointree prune: %d never-firing TGDs removed; remainder is jointly acyclic", len(removed))
		default:
			s.Detail = fmt.Sprintf("%d never-firing TGDs removed; remainder undecided", len(removed))
		}
		if s.Decided {
			s.Conclusion = core.Terminates
		}
	case "mfa":
		if set.HasEGDs() {
			s.Detail = "skipped: MFA is a TGD-only baseline (set has EGDs)"
			return
		}
		mfa := acyclicity.CheckMFA(set, mfaSteps)
		s.Steps = mfa.Steps
		if mfa.Acyclic {
			s.Decided = true
			s.Conclusion = core.Terminates
			s.Detail = fmt.Sprintf("MFA: semi-oblivious critical-instance chase saturated in %d steps (sufficient condition)", mfa.Steps)
		} else {
			s.Detail = "critical-instance chase found a cyclic null or exhausted its budget"
		}
	}
}

// tier1 runs the probe for guarded, non-sticky sets: guarded.DecideContext
// at k = min(probeSteps, guarded budget). Each verdict maps onto the stage
// in a way that preserves conclusion identity with Report, where the
// guarded stage would have decided:
//
//   - seed exhaustion accepts. Every order of a battery is deterministic,
//     and a fixpoint reached within k steps is the fixpoint any larger
//     budget reaches, so the full-budget scan returns the identical verdict;
//   - a divergence witness rejects. The guard-chain pump lives in the
//     first PumpDepth steps of its run, so it does not depend on the
//     budget: every earlier seed saturated within k, the full-budget scan
//     stops at the same seed, and it mines a pump from the same chain;
//   - a budget exhausted without a pump claims nothing, and the input
//     routes onward to Tier 2.
func (r *runner) tier1(ctx context.Context) error {
	if !r.set.IsGuarded() || r.set.IsSticky() {
		return nil
	}
	start := time.Now()
	opts := r.opts.Guarded
	opts.MaxSteps = min(probeSteps, resolved(opts.MaxSteps, guarded.DefaultMaxSteps))
	v, err := guarded.DecideContext(ctx, r.set, opts)
	if err != nil {
		return err
	}
	// The scan stops at the first seed that does not saturate, so every
	// seed before it saturated.
	saturated := v.SeedsTried
	if !v.Terminates {
		saturated--
	}
	s := StageOutcome{
		Stage:     "probe",
		Tier:      1,
		Steps:     v.Budget,
		Duration:  time.Since(start),
		Seeds:     v.SeedsTried,
		Saturated: saturated,
		Depth:     v.Depth,
	}
	switch v.Method {
	case "seed-exhaustion":
		s.Decided = true
		s.Conclusion = core.Terminates
		s.Detail = fmt.Sprintf("probe: all %d seeds saturated within %d steps (full battery pinned terminating)", v.SeedsTried, v.Budget)
	case "divergence-witness":
		s.Decided = true
		s.Conclusion = core.Diverges
		s.Evidence = v.Evidence
		s.Detail = fmt.Sprintf("probe: pump at depth %d within k=%d; seed %d diverges (%s)", v.Depth, v.Budget, v.SeedsTried, v.Evidence)
	default:
		s.Detail = fmt.Sprintf("probe: %d/%d swept seeds saturated within %d steps; routing onward", saturated, v.SeedsTried, v.Budget)
	}
	r.conclude(s)
	return nil
}

// decider is one Tier 2 stage.
type decider struct {
	name string
	run  func(ctx context.Context) (StageOutcome, error)
}

// tier2 runs the semantic deciders one after another in canonical order,
// so a decider's verdict counts only after every earlier one completed
// without deciding — exactly Report's sequential semantics. Once the
// conclusion is fixed, every later decider is recorded as skipped.
func (r *runner) tier2(ctx context.Context) error {
	for _, d := range r.tier2Deciders() {
		if r.decided() {
			r.res.Stages = append(r.res.Stages, StageOutcome{
				Stage:  d.name,
				Tier:   2,
				Detail: "skipped: an earlier stage decided",
			})
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		out, err := d.run(ctx)
		if err != nil {
			return err
		}
		r.conclude(out)
	}
	return nil
}

// tier2Deciders assembles the canonical Tier 2 field: sticky before
// guarded.
func (r *runner) tier2Deciders() []decider {
	var out []decider
	if r.set.IsSticky() {
		out = append(out, decider{name: "sticky", run: r.runSticky})
	}
	if r.set.IsGuarded() {
		out = append(out, decider{name: "guarded", run: r.runGuarded})
	}
	return out
}

func (r *runner) runSticky(ctx context.Context) (StageOutcome, error) {
	start := time.Now()
	v, err := sticky.DecideContext(ctx, r.set, r.opts.Sticky)
	if err != nil {
		return StageOutcome{}, err
	}
	s := StageOutcome{Stage: "sticky", Tier: 2, Steps: v.StatesExplored, Duration: time.Since(start)}
	if r.exhaustive && !v.Terminates {
		s.Evidence = fmt.Sprintf("witness (sticky): seed %v, lasso prefix %v cycle %v", v.Seed.EType, v.Lasso.Prefix, v.Lasso.Cycle)
	}
	switch {
	case v.Terminates && v.Complete:
		s.Decided = true
		s.Conclusion = core.Terminates
		s.Detail = "sticky Büchi automaton A_T is empty (Theorem 6.1)"
	case !v.Terminates:
		s.Decided = true
		s.Conclusion = core.Diverges
		s.Detail = fmt.Sprintf("sticky Büchi witness: caterpillar lasso of length %d+%d (Theorem 6.1)",
			len(v.Lasso.Prefix), len(v.Lasso.Cycle))
	case v.Method == "seed-cap":
		s.Detail = fmt.Sprintf("sticky Büchi automaton not explored: more than %d components (e₀, Π₀)", sticky.MaxSeeds)
	default:
		s.Detail = "sticky Büchi exploration incomplete (state bound); no witness found"
	}
	return s, nil
}

func (r *runner) runGuarded(ctx context.Context) (StageOutcome, error) {
	start := time.Now()
	v, err := guarded.DecideContext(ctx, r.set, r.opts.Guarded)
	if err != nil {
		return StageOutcome{}, err
	}
	s := StageOutcome{Stage: "guarded", Tier: 2, Steps: v.SeedsTried, Duration: time.Since(start)}
	if r.exhaustive && !v.Terminates && v.Witness != nil {
		s.Evidence = fmt.Sprintf("witness (guarded): database %v", v.Witness)
	}
	switch {
	case v.Terminates && v.Method == "weak-acyclicity":
		s.Decided = true
		s.Conclusion = core.Terminates
		s.Detail = "guarded: weak acyclicity"
	case v.Terminates:
		s.Decided = true
		s.Conclusion = core.Terminates
		s.Detail = fmt.Sprintf("guarded: %d seeds exhausted at budget %d (bounded search, not a decision procedure)", v.SeedsTried, v.Budget)
	case v.Method == "divergence-witness":
		s.Decided = true
		s.Conclusion = core.Diverges
		s.Detail = fmt.Sprintf("guarded: diverging witness database (%s)", v.Evidence)
	default:
		s.Detail = fmt.Sprintf("guarded: budget exhausted without certificate (%s)", v.Evidence)
	}
	return s, nil
}

// record converts a finished result into the portable cache entry.
func record(res *Result) *chase.StageOutcomes {
	so := &chase.StageOutcomes{
		Verdict:   res.Conclusion.String(),
		DecidedBy: res.DecidedBy,
		Records:   make([]chase.StageRecord, len(res.Stages)),
	}
	for i, s := range res.Stages {
		so.Records[i] = chase.StageRecord{
			Stage:      s.Stage,
			Tier:       s.Tier,
			Decided:    s.Decided,
			Verdict:    s.Conclusion.String(),
			Detail:     s.Detail,
			Steps:      s.Steps,
			DurationNS: int64(s.Duration),
			Seeds:      s.Seeds,
			Saturated:  s.Saturated,
			Depth:      s.Depth,
			Evidence:   s.Evidence,
		}
	}
	return so
}

// replay rebuilds a Result from a cache entry. Durations are zeroed: the
// replayed stages did not run.
func replay(so *chase.StageOutcomes) *Result {
	res := &Result{
		Conclusion: parseConclusion(so.Verdict),
		DecidedBy:  so.DecidedBy,
		CacheHit:   true,
		Stages:     make([]StageOutcome, len(so.Records)),
	}
	for i, rec := range so.Records {
		res.Stages[i] = StageOutcome{
			Stage:      rec.Stage,
			Tier:       rec.Tier,
			Decided:    rec.Decided,
			Conclusion: parseConclusion(rec.Verdict),
			Detail:     rec.Detail,
			Steps:      rec.Steps,
			Seeds:      rec.Seeds,
			Saturated:  rec.Saturated,
			Depth:      rec.Depth,
			Evidence:   rec.Evidence,
		}
	}
	return res
}

func parseConclusion(s string) core.Conclusion {
	switch s {
	case "terminates":
		return core.Terminates
	case "diverges":
		return core.Diverges
	default:
		return core.Unknown
	}
}
