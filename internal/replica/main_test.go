package replica

import (
	"os"
	"testing"
	"time"
)

// The suite kills and restarts peers constantly; production retry timing
// would spend most of its wall clock in backoff.
func TestMain(m *testing.M) {
	retryBase, retryCap = 5*time.Millisecond, 50*time.Millisecond
	os.Exit(m.Run())
}
