package sim

import (
	"testing"

	"antdensity/internal/rng"
)

// occProbeStats returns the maximum and total cyclic home-to-slot
// probe distances over a table's live entries — the cost model for
// every lookup path (get, lookupInto, inc, dec).
func occProbeStats(t *occTable) (maxProbe, total int) {
	capacity := uint64(len(t.keys))
	for i, k := range t.keys {
		if k == emptyKey {
			continue
		}
		d := int((uint64(i) - t.home(k) + capacity) & t.mask)
		total += d
		if d > maxProbe {
			maxProbe = d
		}
	}
	return maxProbe, total
}

// TestOccTableGrowShrink drives the table through a population boom
// and collapse against an oracle map: growth must preserve every
// entry, collapse must hand memory back, and — the property the
// compaction exists for — a grown-then-shrunk table must probe no
// worse than a fresh table built directly from the surviving
// population.
func TestOccTableGrowShrink(t *testing.T) {
	s := rng.New(0xdecade)
	const boom = 5000
	keys := make([]int64, 0, boom)
	seen := make(map[int64]bool, boom)
	for len(keys) < boom {
		k := int64(s.Uint64() & (1<<40 - 1))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}

	// Boom: a table sized for 4 agents absorbs 5000 occupied nodes,
	// growing as it goes. Multiplicities 1–3 with a random tagged
	// share exercise the cell payload across rehashes.
	tab := newOccTable(4)
	oracle := make(map[int64]cell, boom)
	for _, k := range keys {
		n := 1 + s.Intn(3)
		for j := 0; j < n; j++ {
			tagged := s.Bernoulli(0.3)
			tab.inc(k, tagged)
			c := oracle[k]
			c.total++
			if tagged {
				c.tagged++
			}
			oracle[k] = c
		}
	}
	if tab.used != boom {
		t.Fatalf("after boom: used = %d, want %d", tab.used, boom)
	}
	peak := len(tab.keys)
	if peak < 4*boom {
		t.Fatalf("after boom: capacity %d violates the 1/4 load bound for %d entries", peak, boom)
	}
	for _, k := range keys {
		if got := tab.get(k); got != oracle[k] {
			t.Fatalf("after boom: get(%d) = %+v, want %+v", k, got, oracle[k])
		}
	}

	// Collapse: empty all but the last 200 nodes.
	const survivors = 200
	for _, k := range keys[:boom-survivors] {
		c := oracle[k]
		for ; c.total > 0; c.total-- {
			tagged := c.tagged > 0
			if tagged {
				c.tagged--
			}
			tab.dec(k, tagged)
		}
		delete(oracle, k)
	}
	if tab.used != survivors {
		t.Fatalf("after collapse: used = %d, want %d", tab.used, survivors)
	}
	if len(tab.keys) >= peak {
		t.Fatalf("after collapse: capacity %d never shrank from peak %d", len(tab.keys), peak)
	}
	if c := len(tab.keys); c > minShrinkCap && 32*tab.used < c {
		t.Fatalf("after collapse: capacity %d still above the shrink trigger for %d entries", c, tab.used)
	}
	for k, want := range oracle {
		if got := tab.get(k); got != want {
			t.Fatalf("after collapse: get(%d) = %+v, want %+v", k, got, want)
		}
	}

	// The compaction property: the survivor table probes no worse
	// than a fresh table holding the same entries.
	fresh := newOccTable(survivors)
	for k, c := range oracle {
		for j := int32(0); j < c.total; j++ {
			fresh.inc(k, j < c.tagged)
		}
	}
	shrunkMax, shrunkTotal := occProbeStats(tab)
	freshMax, freshTotal := occProbeStats(fresh)
	if shrunkMax > freshMax+2 {
		t.Errorf("shrunk table max probe %d, fresh %d", shrunkMax, freshMax)
	}
	if shrunkTotal > 2*freshTotal+2*survivors {
		t.Errorf("shrunk table total probe distance %d, fresh %d", shrunkTotal, freshTotal)
	}
}

// TestOccTableChurnHysteresis pins the anti-thrash property: a
// population oscillating around a fixed size — every agent deleted
// and reinserted each round — must never resize the table after the
// initial build.
func TestOccTableChurnHysteresis(t *testing.T) {
	s := rng.New(31337)
	const agents = 3000 // capacity 16384, above minShrinkCap
	tab := newOccTable(agents)
	keys := make([]int64, agents)
	for i := range keys {
		keys[i] = int64(s.Uint64() & (1<<30 - 1))
		tab.inc(keys[i], false)
	}
	capBefore := len(tab.keys)
	if capBefore <= minShrinkCap {
		t.Fatalf("test needs a shrink-eligible capacity, got %d", capBefore)
	}
	for round := 0; round < 20; round++ {
		for i := range keys {
			tab.dec(keys[i], false)
			keys[i] = int64(s.Uint64() & (1<<30 - 1))
			tab.inc(keys[i], false)
		}
		if len(tab.keys) != capBefore {
			t.Fatalf("round %d: capacity moved %d -> %d under steady churn", round, capBefore, len(tab.keys))
		}
	}
}
