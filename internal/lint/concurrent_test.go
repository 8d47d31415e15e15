package lint_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sparseap/internal/lint"
	"sparseap/internal/oracle"
	"sparseap/internal/rewrite"
)

// TestLintAndRewriteShareNetwork lints and rewrites one fresh network from
// two goroutines at once, as a caller that checks and optimizes the same
// pattern set does. Both only read the network, so under -race the run
// must be clean, and each must give what it gives on a copy of its own.
func TestLintAndRewriteShareNetwork(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	for i := 0; i < 20; i++ {
		net := oracle.Network(r, 60)
		wantLint := lint.Run(net.Clone(), lint.Options{})
		wantRw, wantErr := rewrite.Rewrite(net.Clone(), rewrite.Options{Capacity: 3000})

		var (
			wg      sync.WaitGroup
			gotLint *lint.Result
			gotRw   *rewrite.Result
			gotErr  error
		)
		wg.Add(2)
		go func() { defer wg.Done(); gotLint = lint.Run(net, lint.Options{}) }()
		go func() { defer wg.Done(); gotRw, gotErr = rewrite.Rewrite(net, rewrite.Options{Capacity: 3000}) }()
		wg.Wait()

		if !reflect.DeepEqual(gotLint.Diags, wantLint.Diags) {
			t.Fatalf("draw %d: concurrent lint gave %v, alone %v", i, gotLint.Diags, wantLint.Diags)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("draw %d: concurrent rewrite error %v, alone %v", i, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(gotRw.Stats, wantRw.Stats) {
			t.Fatalf("draw %d: concurrent rewrite stats %+v, alone %+v", i, gotRw.Stats, wantRw.Stats)
		}
	}
}
