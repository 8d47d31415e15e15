package sparseap_test

import (
	"testing"

	"sparseap"
)

func TestStreamerFacade(t *testing.T) {
	net, err := sparseap.CompileRegex([]string{"ab"})
	if err != nil {
		t.Fatal(err)
	}
	st := sparseap.NewStreamer(net)
	n := 0
	st.OnReport = func(pos int64, s sparseap.StateID) { n++ }
	st.Write([]byte("a"))
	st.Write([]byte("b ab"))
	if n != 2 {
		t.Fatalf("streaming matches = %d, want 2", n)
	}
}
