package otrace

import "context"

// ctxKey keys the trace Context inside a context.Context.
type ctxKey struct{}

// With returns a context carrying tc; cluster.Client's per-peer requests
// read it back and stamp the X-Dirsim-Trace header on every outbound
// request.
func With(ctx context.Context, tc Context) context.Context {
	return context.WithValue(ctx, ctxKey{}, tc)
}

// From extracts the trace context, if any.
func From(ctx context.Context) (Context, bool) {
	tc, ok := ctx.Value(ctxKey{}).(Context)
	return tc, ok && tc.Trace != ""
}
