package sfc

// Mutation hooks for the external oracle test (mutation_test.go): each
// corrupts one entry of the tables the curve code reads and returns the
// function that restores it. Tests using them must not run in parallel.

// MutateMotifChild replaces the orientation of the i-th sub-domain of kind
// k's motif and re-derives the oriented tables, as if the motif had been
// written down wrong.
func MutateMotifChild(k Kind, i int, child XF) (restore func()) {
	motif := motifOf(k)
	old := motif[i].child
	motif[i].child = child
	orientedMotifs = orientMotifs()
	return func() {
		motif[i].child = old
		orientedMotifs = orientMotifs()
	}
}

// MutateDigit overwrites one entry of the digit table the descent reads,
// leaving the tables the recursion reads intact.
func MutateDigit(k Kind, t XF, cell, digit int) (restore func()) {
	tab := orientedMotifs[k][t.index()].digit
	old := tab[cell]
	tab[cell] = digit
	return func() { tab[cell] = old }
}
