package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/stats"
)

// AdmissionConfig parameterizes the fair-share admission controller.
type AdmissionConfig struct {
	// Classes is the per-class service model.
	Classes RequestClasses
	// Qmin is the fair-share floor (after SNIPPETS Snippets 1–2): when
	// the per-user share Q = m/k would fall below it, the controller
	// sheds users instead of degrading everyone further. In (0,1].
	Qmin float64
	// MaxBacklog caps each deferrable class's backlog in users;
	// deferrals beyond it become rejections so the backlog cannot grow
	// without bound during a sustained crunch.
	MaxBacklog float64
}

// DefaultAdmissionConfig matches the default request classes with a 0.5
// fair-share floor and a million-user deferral backlog.
func DefaultAdmissionConfig() AdmissionConfig {
	return AdmissionConfig{
		Classes:    DefaultRequestClasses(),
		Qmin:       0.5,
		MaxBacklog: 1e6,
	}
}

// Validate checks the configuration, collecting every violation —
// across all classes and the controller's own knobs — into one
// aggregated error in the cmd/dcsim flag-validation style, instead of
// stopping at the first problem.
func (c AdmissionConfig) Validate() error {
	problems := c.Classes.problems(nil)
	if c.Qmin <= 0 || c.Qmin > 1 || math.IsNaN(c.Qmin) {
		problems = append(problems, fmt.Sprintf("Qmin %v out of (0,1]", c.Qmin))
	}
	if c.MaxBacklog < 0 || math.IsNaN(c.MaxBacklog) {
		problems = append(problems, fmt.Sprintf("max backlog %v must be non-negative", c.MaxBacklog))
	}
	return problemsErr("invalid admission config", problems)
}

// classMode is what the shedding ladder currently does to a class.
type classMode int

const (
	modeAdmit   classMode = iota // full service
	modeDegrade                  // admitted at DegradeCost, counted degraded
	modeShed                     // not admitted: deferred or rejected
)

// shedTable maps the ladder level to per-class modes. Level 0 is normal
// fair-share; each level pushes the lowest surviving class one rung down
// (admit → degrade → shed), so graceful degradation is expressed in
// users: background degrades first, then sheds while batch degrades,
// until only interactive traffic is admitted.
var shedTable = [4][NumClasses]classMode{
	{modeAdmit, modeAdmit, modeAdmit},
	{modeAdmit, modeAdmit, modeDegrade},
	{modeAdmit, modeDegrade, modeShed},
	{modeAdmit, modeShed, modeShed},
}

// MaxShedLevel is the deepest ladder level (interactive-only admission).
const MaxShedLevel = len(shedTable) - 1

// Sanitization bounds: hostile inputs (fuzzing, broken generators) are
// clamped so arithmetic stays finite. 1e15 users per tick and 1e12
// server-equivalents are far beyond any physical operating point.
const (
	maxUsersPerTick  = 1e15
	maxCapacityErl   = 1e12
	maxErlangServers = 1e6 // Erlang-C iteration bound; waits are ~0 past it
)

// TickOutcome is the user-visible result of one admission tick. All
// fields are value arrays so the per-tick path allocates nothing.
type TickOutcome struct {
	// Q is the fair share granted to admitted users: min(1, m/k) over
	// the post-shed demand, floored at Qmin by shedding.
	Q float64
	// DemandErl is the pre-admission offered load in server-equivalents
	// (Erlangs), including replayed backlog; CapacityErl is the m it was
	// admitted against. AdmittedErl is the load actually placed.
	DemandErl, CapacityErl, AdmittedErl float64
	// Offered counts the users wanting service this tick per class —
	// fresh arrivals plus replayed backlog. Every tick,
	// Admitted + Rejected + Deferred == Offered per class.
	Offered [NumClasses]float64
	// Admitted, Rejected, Deferred partition Offered.
	Admitted [NumClasses]float64
	Rejected [NumClasses]float64
	Deferred [NumClasses]float64
	// Degraded is the subset of Admitted served below full quality:
	// class-degraded by the ladder, or admitted at fair share Q < 1.
	Degraded [NumClasses]float64
	// SLOMiss flags the admitting classes whose Erlang-C mean queueing
	// delay exceeded their SLO target this tick (see sloMiss); the delay
	// itself is computed only where the miss needs it.
	SLOMiss [NumClasses]bool
}

// Admission is the batched fair-share admission controller: one Tick per
// decision period admits, degrades, defers, or rejects the tick's
// offered users against the capacity the power side granted. The
// zero-allocation per-tick discipline of the dispatch path applies; all
// state is fixed-size.
//
// Admission is not safe for concurrent use; like every model in this
// library it belongs to one engine's single-threaded event loop.
type Admission struct {
	cfg  AdmissionConfig
	shed int

	backlog [NumClasses]float64
	lastQ   float64

	ticks        int64
	freshTot     [NumClasses]float64
	admittedTot  [NumClasses]float64
	rejectedTot  [NumClasses]float64
	degradedTot  [NumClasses]float64
	deferEvents  [NumClasses]float64
	sloMissTicks [NumClasses]int64
	activeTicks  [NumClasses]int64 // ticks with admitted > 0 (SLO denominators)
}

// NewAdmission builds a controller from the configuration.
func NewAdmission(cfg AdmissionConfig) (*Admission, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Admission{cfg: cfg, lastQ: 1}, nil
}

// Config reports the configuration.
func (a *Admission) Config() AdmissionConfig { return a.cfg }

// SetShedLevel moves the shedding ladder (0 = normal fair share,
// MaxShedLevel = interactive-only). Out-of-range levels clamp.
func (a *Admission) SetShedLevel(level int) {
	if level < 0 {
		level = 0
	}
	if level > MaxShedLevel {
		level = MaxShedLevel
	}
	a.shed = level
}

// ShedLevel reports the current ladder level.
func (a *Admission) ShedLevel() int { return a.shed }

// Q reports the fair share granted on the most recent tick (1 before
// any tick).
func (a *Admission) Q() float64 { return a.lastQ }

// Backlog reports the deferred-user backlog of one class.
func (a *Admission) Backlog(c Class) float64 { return a.backlog[c] }

// Ticks reports how many admission ticks have run.
func (a *Admission) Ticks() int64 { return a.ticks }

// OfferedUsers reports cumulative fresh arrivals across classes
// (backlog replays are not double-counted).
func (a *Admission) OfferedUsers() float64 { return sumClasses(&a.freshTot) }

// AdmittedUsers reports cumulative admitted users across classes.
func (a *Admission) AdmittedUsers() float64 { return sumClasses(&a.admittedTot) }

// RejectedUsers reports cumulative rejected users across classes.
func (a *Admission) RejectedUsers() float64 { return sumClasses(&a.rejectedTot) }

// DegradedUsers reports cumulative degraded-service users across classes.
func (a *Admission) DegradedUsers() float64 { return sumClasses(&a.degradedTot) }

// DeferredBacklog reports the total backlog currently deferred.
func (a *Admission) DeferredBacklog() float64 { return sumClasses(&a.backlog) }

// ClassAdmitted reports cumulative admitted users of one class.
func (a *Admission) ClassAdmitted(c Class) float64 { return a.admittedTot[c] }

// ClassRejected reports cumulative rejected users of one class.
func (a *Admission) ClassRejected(c Class) float64 { return a.rejectedTot[c] }

// ClassDegraded reports cumulative degraded users of one class.
func (a *Admission) ClassDegraded(c Class) float64 { return a.degradedTot[c] }

// SLOMissRate reports the fraction of a class's active ticks (ticks
// that admitted any of its users) whose Erlang-C wait missed the SLO,
// each miss decided as Tick's SLOMiss is.
func (a *Admission) SLOMissRate(c Class) float64 {
	if a.activeTicks[c] == 0 {
		return 0
	}
	return float64(a.sloMissTicks[c]) / float64(a.activeTicks[c])
}

func sumClasses(v *[NumClasses]float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Tick admits one decision period's arrivals against capacityErl
// server-equivalents of granted capacity. fresh holds the new user
// arrivals per class for a tick of length dt; deferred backlog from
// earlier ticks is replayed ahead of fresh work. The receiver-owned
// arrays make the call allocation-free.
//
// The fair-share rule follows Snippets 1–2: every user wanting service
// gets share Q = min(1, m/k) of its nominal resource; when Q would sink
// below Qmin, users are shed lowest-class-first until the survivors'
// share recovers to the floor. Admitted users at Q < 1 — and any class
// the ladder marked degraded — count as degraded, the user-visible cost
// the experiments report next to watts. Each admitting class's SLO miss
// is decided on its share of capacity as an M/M/n queue (sloMiss), by
// an O(1) bound wherever the bound decides it.
func (a *Admission) Tick(dt time.Duration, fresh *[NumClasses]float64, capacityErl float64) TickOutcome {
	if dt <= 0 {
		panic(fmt.Sprintf("workload: admission tick dt %v must be positive", dt))
	}
	if capacityErl < 0 || math.IsNaN(capacityErl) {
		capacityErl = 0
	}
	if capacityErl > maxCapacityErl {
		capacityErl = maxCapacityErl
	}
	var out TickOutcome
	out.CapacityErl = capacityErl
	modes := &shedTable[a.shed]
	dtSec := dt.Seconds()

	// Offered = fresh arrivals + replayed backlog. The backlog is
	// consumed here; whatever cannot be admitted re-defers (or is
	// rejected) below, so a user is never both in Offered's replay and
	// in the closing backlog.
	var remaining [NumClasses]float64
	for c := 0; c < NumClasses; c++ {
		f := fresh[c]
		if f < 0 || math.IsNaN(f) {
			f = 0
		}
		if f > maxUsersPerTick {
			f = maxUsersPerTick
		}
		a.freshTot[c] += f
		out.Offered[c] = f + a.backlog[c]
		remaining[c] = out.Offered[c]
		a.backlog[c] = 0
	}

	// Ladder-shed classes never reach the fair-share pool.
	for c := 0; c < NumClasses; c++ {
		if modes[c] == modeShed {
			a.removeUsers(&out, Class(c), remaining[c])
			remaining[c] = 0
		}
	}

	// Demand in Erlangs: λ·S per class, degraded classes at DegradeCost.
	var erl [NumClasses]float64
	var k float64
	for c := 0; c < NumClasses; c++ {
		erl[c] = remaining[c] / dtSec * a.cfg.Classes[c].ServiceTime.Seconds() * a.classCost(Class(c), modes)
		k += erl[c]
	}
	out.DemandErl = k
	for c := 0; c < NumClasses; c++ {
		// Shed classes still demanded service; report them in DemandErl
		// at nominal cost so planners see the pre-shed load.
		if modes[c] == modeShed {
			out.DemandErl += out.Offered[c] / dtSec * a.cfg.Classes[c].ServiceTime.Seconds()
		}
	}

	// Fair share, floored at Qmin by shedding lowest class first.
	q := 1.0
	if k > 0 {
		q = capacityErl / k
		if q > 1 {
			q = 1
		}
	}
	if q < a.cfg.Qmin {
		// Trim demand to the level the floor can carry: k' = m/Qmin.
		excess := k - capacityErl/a.cfg.Qmin
		for _, c := range shedOrder {
			if excess <= 0 {
				break
			}
			if erl[c] <= 0 {
				continue
			}
			cut := excess
			if cut > erl[c] {
				cut = erl[c]
			}
			users := remaining[c] * (cut / erl[c])
			a.removeUsers(&out, c, users)
			remaining[c] -= users
			erl[c] -= cut
			excess -= cut
		}
		k = 0
		for c := 0; c < NumClasses; c++ {
			k += erl[c]
		}
		// The survivors' share recovers to the floor (shedding targets
		// k' = m/Qmin); clamp so Q reports exactly [Qmin, 1] regardless
		// of rounding, and so a fully-shed tick (capacity zero) reports
		// the floor rather than an idle 1 — keeping Q monotone in
		// capacity for a fixed offered load.
		q = a.cfg.Qmin
		if k > 0 {
			q = capacityErl / k
			if q > 1 {
				q = 1
			}
			if q < a.cfg.Qmin {
				q = a.cfg.Qmin
			}
		}
	}
	out.Q = q
	out.AdmittedErl = k * math.Min(q, 1)
	a.lastQ = q
	a.ticks++

	// Admit the survivors; count degradation and evaluate per-class
	// Erlang-C SLOs on a capacity split proportional to admitted load.
	for c := 0; c < NumClasses; c++ {
		adm := remaining[c]
		out.Admitted[c] = adm
		a.admittedTot[c] += adm
		if adm <= 0 {
			continue
		}
		if modes[c] == modeDegrade || q < 1 {
			out.Degraded[c] = adm
			a.degradedTot[c] += adm
		}
		a.activeTicks[c]++

		lambda := adm / dtSec
		st := a.cfg.Classes[c].ServiceTime.Seconds()
		mu := 1 / st
		// The class's server allocation: its share of capacity, at
		// least one server whenever it admitted anyone.
		n := 1
		if k > 0 {
			share := capacityErl * (erl[c] / k)
			if share > maxErlangServers {
				share = maxErlangServers
			}
			if int(share) > n {
				n = int(share)
			}
		}
		if sloMiss(n, lambda, mu, a.cfg.Classes[c].SLOWait.Seconds()) {
			out.SLOMiss[c] = true
			a.sloMissTicks[c]++
		}
	}
	return out
}

// sloMiss reports whether the mean queueing delay of an M/M/n queue with
// arrival rate lambda and per-server service rate mu exceeds slo seconds:
// exactly stats.MMcWait(n, lambda, mu) > slo, an error counting as an
// infinite wait. Where MMcWait applies its finite formula (mu > 0 and
// 0 ≤ a = lambda/mu < n), the wait is C/den with den = n·mu − lambda ≥ 0
// and the Erlang C probability C at most 1 (a few ulps over, in floats).
// So wherever slo·den ≥ 2 the wait is below slo/2 and there is no miss:
// the O(n) Erlang recurrence runs only where that bound cannot decide.
func sloMiss(n int, lambda, mu, slo float64) bool {
	// The product first: it fails an overloaded class (den ≤ 0) without
	// the division.
	if slo*(float64(n)*mu-lambda) >= 2 && mu > 0 {
		if a := lambda / mu; a >= 0 && a < float64(n) {
			return false
		}
	}
	wait, err := stats.MMcWait(n, lambda, mu)
	if err != nil {
		wait = math.Inf(1)
	}
	return wait > slo
}

// classCost is the per-request capacity cost multiplier under the
// current ladder modes.
func (a *Admission) classCost(c Class, modes *[NumClasses]classMode) float64 {
	if modes[c] == modeDegrade {
		return a.cfg.Classes[c].DegradeCost
	}
	return 1
}

// removeUsers takes users of class c out of this tick's admission:
// deferrable classes push into the backlog up to MaxBacklog, the rest
// (and the overflow) are rejected. Deferred + Rejected additions equal
// users exactly, preserving per-tick conservation.
func (a *Admission) removeUsers(out *TickOutcome, c Class, users float64) {
	if users <= 0 {
		return
	}
	var defer_ float64
	if a.cfg.Classes[c].Deferrable {
		headroom := a.cfg.MaxBacklog - a.backlog[c]
		if headroom < 0 {
			headroom = 0
		}
		defer_ = math.Min(users, headroom)
		a.backlog[c] += defer_
		if defer_ > 0 {
			a.deferEvents[c] += defer_
		}
	}
	rej := users - defer_
	out.Deferred[c] += defer_
	out.Rejected[c] += rej
	a.rejectedTot[c] += rej
}

// CheckInvariants implements the invariant checker's Checkable
// interface: user accounting must conserve (every fresh arrival is
// admitted, rejected, or sitting in the backlog), counts must be finite
// and non-negative, the share in [0,1], and the backlog within its cap.
func (a *Admission) CheckInvariants(now time.Duration) error {
	if a.lastQ < 0 || a.lastQ > 1 || math.IsNaN(a.lastQ) {
		return fmt.Errorf("admission: fair share Q %v out of [0,1] at %v", a.lastQ, now)
	}
	for c := 0; c < NumClasses; c++ {
		cl := Class(c)
		for _, v := range [...]struct {
			name string
			val  float64
		}{
			{"fresh", a.freshTot[c]},
			{"admitted", a.admittedTot[c]},
			{"rejected", a.rejectedTot[c]},
			{"degraded", a.degradedTot[c]},
			{"backlog", a.backlog[c]},
		} {
			if v.val < 0 || math.IsNaN(v.val) || math.IsInf(v.val, 0) {
				return fmt.Errorf("admission: %s %s count %v invalid at %v", cl, v.name, v.val, now)
			}
		}
		if a.backlog[c] > a.cfg.MaxBacklog*(1+1e-9) {
			return fmt.Errorf("admission: %s backlog %v exceeds cap %v at %v", cl, a.backlog[c], a.cfg.MaxBacklog, now)
		}
		if a.degradedTot[c] > a.admittedTot[c]*(1+1e-9) {
			return fmt.Errorf("admission: %s degraded %v exceeds admitted %v at %v", cl, a.degradedTot[c], a.admittedTot[c], now)
		}
		want := a.freshTot[c]
		got := a.admittedTot[c] + a.rejectedTot[c] + a.backlog[c]
		tol := 1e-6 * math.Max(1, want)
		if math.Abs(got-want) > tol {
			return fmt.Errorf("admission: %s conservation broken at %v: admitted %v + rejected %v + backlog %v != offered %v",
				cl, now, a.admittedTot[c], a.rejectedTot[c], a.backlog[c], want)
		}
	}
	return nil
}
