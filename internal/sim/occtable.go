package sim

// occTable is the sparse occupancy representation: an open-addressed
// hash table from node id to occupancy cell, sized for the agent count
// when the index is first built. A Go map would work semantically, but
// its delete/insert churn under incremental maintenance (every agent
// that moves removes one key and inserts another, every round) both
// allocates and costs more than the old full rebuild it was meant to
// replace. This table uses linear probing with backward-shift deletion
// (no tombstones), so the steady-state hot path performs zero
// allocations and probe chains never degrade over time.
//
// Keys and cells live in split parallel arrays (structure-of-arrays):
// probing touches only the keys array — 8 bytes per slot instead of
// the 16 of a key+cell pair — so a probe sequence covers half the
// cache lines, and the cells array is read exactly once per query, on
// the matching slot.
//
// Capacity invariant: the table holds at most one entry per agent
// (cells are deleted the moment they empty), and capacity starts at
// ≥ 4× the agent count, so the load factor starts below 1/4. The
// table resizes itself at the extremes with wide hysteresis: inc
// doubles capacity if an insertion would push load past 1/4 (reachable
// when a shard's population grows past its initial sizing through
// migration), and dec compacts to ~1/8 load once load falls below
// 1/32 (population collapse — crash adversaries, churn) so probe
// chains and memory track the live population instead of its
// high-water mark. The 8× gap between the grow and shrink thresholds
// means a table oscillating around any fixed population never
// resizes, keeping the steady-state hot path at zero allocations.
type occTable struct {
	keys  []int64
	cells []cell
	mask  uint64
	used  int
}

// emptyKey marks a free slot; node ids are non-negative, so the
// sentinel can never collide.
const emptyKey = int64(-1)

// newOccTable returns a table sized for the given agent count.
func newOccTable(agents int) *occTable {
	capacity := 8
	for capacity < 4*agents && capacity < 1<<62 {
		capacity <<= 1
	}
	t := &occTable{
		keys:  make([]int64, capacity),
		cells: make([]cell, capacity),
		mask:  uint64(capacity) - 1,
	}
	t.reset()
	return t
}

// reset empties the table. Cells need no clearing: a cell is read only
// through a matching key, and inc initializes it on insertion.
func (t *occTable) reset() {
	for i := range t.keys {
		t.keys[i] = emptyKey
	}
	t.used = 0
}

// home returns the preferred slot index for key p. The murmur3
// finalizer spreads the sequential node ids a random walk produces.
//
//antlint:noalloc
func (t *occTable) home(p int64) uint64 {
	z := uint64(p)
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return z & t.mask
}

// get returns the cell for node p (zero if unoccupied).
//
//antlint:noalloc
func (t *occTable) get(p int64) cell {
	for i := t.home(p); ; i = (i + 1) & t.mask {
		k := t.keys[i]
		if k == p {
			return t.cells[i]
		}
		if k == emptyKey {
			return cell{}
		}
	}
}

// probeBlock is the batch width of the bulk lookup kernels: hash homes
// for a block of queries are computed in one tight pass, then the
// probe loops run back to back, so the independent key loads of up to
// probeBlock probe chains are in flight together instead of
// serializing behind one query's hash-load-compare chain.
const probeBlock = 32

// lookupInto fills out[j] with the occupancy at pos[j] — the tagged
// counter if tagged, else the total; zero for unoccupied nodes — the
// batched-probe twin of get for bulk count snapshots. out must have at
// least len(pos) elements.
//
//antlint:noalloc
func (t *occTable) lookupInto(pos []int64, out []int, tagged bool) {
	_ = out[:len(pos)]
	var homes [probeBlock]uint64
	for base := 0; base < len(pos); base += probeBlock {
		n := min(len(pos)-base, probeBlock)
		for j := 0; j < n; j++ {
			homes[j] = t.home(pos[base+j])
		}
		for j := 0; j < n; j++ {
			p := pos[base+j]
			i := homes[j]
			for {
				k := t.keys[i]
				if k == p {
					if tagged {
						out[base+j] = int(t.cells[i].tagged)
					} else {
						out[base+j] = int(t.cells[i].total)
					}
					break
				}
				if k == emptyKey {
					out[base+j] = 0
					break
				}
				i = (i + 1) & t.mask
			}
		}
	}
}

// inc adds one agent (tagged or not) to node p's cell.
func (t *occTable) inc(p int64, tagged bool) {
	for i := t.home(p); ; i = (i + 1) & t.mask {
		k := t.keys[i]
		if k == p {
			t.cells[i].total++
			if tagged {
				t.cells[i].tagged++
			}
			return
		}
		if k == emptyKey {
			if 4*(t.used+1) > len(t.keys) {
				t.rehash(2 * len(t.keys))
				t.inc(p, tagged) // re-probe from p's new home
				return
			}
			t.keys[i] = p
			c := cell{total: 1}
			if tagged {
				c.tagged = 1
			}
			t.cells[i] = c
			t.used++
			return
		}
	}
}

// dec removes one agent (tagged or not) from node p's cell, deleting
// the cell when it empties. The caller guarantees p is present.
func (t *occTable) dec(p int64, tagged bool) {
	for i := t.home(p); ; i = (i + 1) & t.mask {
		if t.keys[i] != p {
			continue
		}
		t.cells[i].total--
		if tagged {
			t.cells[i].tagged--
		}
		if t.cells[i].total == 0 {
			t.deleteAt(i)
			t.used--
			t.maybeShrink()
		}
		return
	}
}

// addTag adjusts only the tagged counter of node p's cell by delta.
// The caller guarantees p is present (an agent stands there).
func (t *occTable) addTag(p int64, delta int32) {
	for i := t.home(p); ; i = (i + 1) & t.mask {
		if t.keys[i] == p {
			t.cells[i].tagged += delta
			return
		}
	}
}

// minShrinkCap is the smallest capacity dec will compact: at or below
// it the memory at stake (≤ 16 KiB of slots) is worth less than the
// rehash churn, so small tables keep their construction-time capacity
// forever — which also keeps the small-world zero-alloc pins exact.
const minShrinkCap = 1024

// maybeShrink compacts the table once the load factor falls below
// 1/32, to a power-of-two capacity giving ~1/8 load. The shrink
// trigger (1/32) sits 8× below the grow trigger (1/4), so a
// population oscillating around any fixed size never causes resize
// thrash.
func (t *occTable) maybeShrink() {
	capacity := len(t.keys)
	if capacity <= minShrinkCap || 32*t.used >= capacity {
		return
	}
	target := 64
	for target < 8*t.used {
		target <<= 1
	}
	if target >= capacity {
		return
	}
	t.rehash(target)
}

// rehash rebuilds the table at the given power-of-two capacity,
// reinserting every live entry at its new home.
func (t *occTable) rehash(capacity int) {
	oldKeys, oldCells := t.keys, t.cells
	t.keys = make([]int64, capacity)
	t.cells = make([]cell, capacity)
	t.mask = uint64(capacity) - 1
	for i := range t.keys {
		t.keys[i] = emptyKey
	}
	for i, k := range oldKeys {
		if k == emptyKey {
			continue
		}
		for j := t.home(k); ; j = (j + 1) & t.mask {
			if t.keys[j] == emptyKey {
				t.keys[j] = k
				t.cells[j] = oldCells[i]
				break
			}
		}
	}
}

// deleteAt empties slot i and backward-shifts the following probe
// chain so no tombstones are left behind (Knuth's linear-probing
// deletion): every subsequent entry that is no longer reachable from
// its home slot across the gap is moved into the gap.
func (t *occTable) deleteAt(i uint64) {
	for {
		t.keys[i] = emptyKey
		j := i
		for {
			j = (j + 1) & t.mask
			k := t.keys[j]
			if k == emptyKey {
				return
			}
			h := t.home(k)
			// Entries whose home lies cyclically in (i, j] are still
			// reachable with the gap at i; anything else must shift.
			var reachable bool
			if i <= j {
				reachable = h > i && h <= j
			} else {
				reachable = h > i || h <= j
			}
			if !reachable {
				t.keys[i] = k
				t.cells[i] = t.cells[j]
				i = j
				break
			}
		}
	}
}
