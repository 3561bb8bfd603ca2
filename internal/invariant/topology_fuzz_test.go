package invariant

import (
	"math"
	"testing"

	"repro/internal/power"
)

// FuzzTopologyCheck builds a canonical tree of up to 24 racks from any
// shape, rack rating and oversubscription NewTopology accepts, whose
// every node must then carry a finite, positive rating. It then drives
// the rack readings through a script of steps, repeats and
// oversubscription flips. The armed checker, which skips the walk of an
// unchanged clean tree, must report exactly what a fresh checker per
// check reports. Registered in the CI fuzz-smoke job.
func FuzzTopologyCheck(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	// Op bytes (see topoScript): n<<2 holds for n+1 checks, r<<2|1
	// sets rack r from the next byte, 2 sets every rack from the next
	// byte, 3 flips the sizing.
	steady := []byte{2, 32, 9 << 2}
	for _, c := range []struct{ rackW, over float64 }{
		{nan, 1}, {inf, 1}, {-inf, 1}, {1000, nan}, {1000, inf}, {1000, -inf},
	} {
		f.Add(uint8(0), c.rackW, c.over, steady)
	}
	// Rack 0 at twice its rating, held for 40 more checks: a standing
	// overload reported at every check until the cap.
	f.Add(uint8(0), 1000.0, 1.0, []byte{1, 128, 39 << 2})
	// Eight racks, each at its rating, overload the undersized PDUs:
	// allowed at 1.25, a violation once the tree is flipped to strict
	// sizing, allowed again after the flip back.
	f.Add(uint8(9), 1000.0, 1.25, []byte{2, 64, 3 << 2, 3, 2 << 2, 3, 4 << 2})
	// NaN, infinite and negative readings, each repeated.
	f.Add(uint8(23), 5000.0, 1.0, []byte{3<<2 | 1, 255, 1 << 2, 3<<2 | 1, 254, 0, 3<<2 | 1, 253, 3<<2 | 1, 253, 2, 16})
	f.Fuzz(func(t *testing.T, shape uint8, rackW, over float64, script []byte) {
		topo, err := power.NewTopology(power.TopologyConfig{
			UPSCount:         1 + int(shape%2),
			PDUsPerUPS:       1 + int(shape/2%3),
			RacksPerPDU:      1 + int(shape/6%4),
			RackRatedW:       rackW,
			Oversubscription: over,
		})
		if err != nil {
			return
		}
		nodes := append([]*power.Node{topo.Feed}, topo.UPSes...)
		nodes = append(append(nodes, topo.PDUs...), topo.Racks...)
		for _, n := range nodes {
			if r := n.RatedW(); !(r > 0) || math.IsInf(r, 0) {
				t.Fatalf("NewTopology(rack %v W, oversubscription %v) accepted node %s rated %v W",
					rackW, over, n.Name(), r)
			}
		}
		loads := make([]float64, len(topo.Racks))
		for r, rack := range topo.Racks {
			rack.AddLoad(func() float64 { return loads[r] })
		}
		checkTopoScript(t, topo, loads, topoScript(script, rackW, len(loads)))
	})
}

// topoScript decodes fuzz bytes into at most 256 checks. The low two
// bits of an op byte pick its step: hold for 1 to 64 checks, set the rack
// its high bits name, set every rack, or flip the tree between strict
// and oversubscribed sizing. A rack reading comes from the next byte:
// 255 is NaN, 254 is +Inf, 253 draws −rackW/2, and any other v draws
// rackW·v/64, up to about four times the rating.
func topoScript(b []byte, rackW float64, racks int) []topoStep {
	reading := func() float64 {
		if len(b) == 0 {
			return 0
		}
		v := b[0]
		b = b[1:]
		switch v {
		case 255:
			return math.NaN()
		case 254:
			return math.Inf(1)
		case 253:
			return -rackW / 2
		}
		return rackW * float64(v) / 64
	}
	flip := func(topo *power.Topology, _ []float64) {
		if topo.Oversubscription <= 1 {
			topo.Oversubscription = 1.25
		} else {
			topo.Oversubscription = 1
		}
	}
	var script []topoStep
	for len(b) > 0 && len(script) < 256 {
		op := b[0]
		b = b[1:]
		switch op % 4 {
		case 0:
			script = append(script, hold(1+int(op>>2))...)
		case 1:
			script = append(script, setRack(int(op>>2)%racks, reading()))
		case 2:
			w := reading()
			script = append(script, func(_ *power.Topology, loads []float64) {
				for r := range loads {
					loads[r] = w
				}
			})
		case 3:
			script = append(script, flip)
		}
	}
	return script[:min(len(script), 256)]
}
