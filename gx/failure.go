package gx

import (
	"errors"
	"io"
	"io/fs"

	"gxplug/internal/engine"
)

// Failure classes [FailureClass] sorts errors into — the vocabulary
// suite reports and harnesses use to tell an injected fault from a bad
// scenario from a broken file.
const (
	// ClassFault: an injected fault the middleware could not absorb
	// (the error chain contains a [FaultError]).
	ClassFault = "fault"
	// ClassValidation: the scenario or suite was rejected before
	// anything ran (the chain contains a [ValidationError]).
	ClassValidation = "validation"
	// ClassIO: reading an input failed — a missing or truncated
	// dataset file, a [DigestMismatchError].
	ClassIO = "io"
	// ClassRun: any other execution failure.
	ClassRun = "run"
)

// ValidationError wraps a rejection made before anything ran — by
// scenario validation, or by the engine's one config resolution, which
// produces this type itself — so callers can classify it without
// string matching; the message is the underlying error's, unchanged.
type ValidationError = engine.ConfigError

// FailureClass classifies an entry or run error into one of the Class*
// constants ("" for nil). Classification inspects the error chain, in
// specificity order: faults before validation before I/O.
func FailureClass(err error) string {
	if err == nil {
		return ""
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		return ClassFault
	}
	var ve *ValidationError
	if errors.As(err, &ve) {
		return ClassValidation
	}
	var de *DigestMismatchError
	var pe *fs.PathError
	if errors.As(err, &de) || errors.As(err, &pe) ||
		errors.Is(err, fs.ErrNotExist) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ClassIO
	}
	return ClassRun
}
