package machine

import "testing"

func TestNodeLayoutUniform(t *testing.T) {
	nodeOf, n := NodeLayout(20, Model{ProcsPerNode: 8})
	if n != 3 {
		t.Errorf("numNodes = %d, want 3", n)
	}
	if nodeOf[0] != 0 || nodeOf[7] != 0 || nodeOf[8] != 1 || nodeOf[19] != 2 {
		t.Errorf("layout wrong: %v", nodeOf)
	}
}
