package apidiscipline_test

import (
	"testing"

	"repro/internal/analysis/apidiscipline"
	"repro/internal/analysis/kit/kittest"
)

func TestAPIDiscipline(t *testing.T) {
	kittest.Run(t, apidiscipline.Analyzer,
		"testdata/src/api_a",
		"testdata/src/api_clean",
	)
}
