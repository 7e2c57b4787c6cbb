// dpmllint fixture: braced temporaries living across a co_await suspension.
// gcc 12 double-destroys the extra temporary (frame slot reuse, bad free) —
// the await-temporary rule exists to keep the pattern out of the tree.
// Never compiled; scanned by dpmllint_test.
struct Task {};
struct Spec {
  const char* algo;
};
Task run_collective(int kind, int args, const Spec& spec);
Task send(int dst, int tag, int n);

Task caller(int kind, int a) {
  co_await run_collective(kind, a, {"rd"});  // await-temporary
  co_await run_collective(kind, a, {"ring"});  // await-temporary

  // The fixed idiom: bind to a named local first.
  const Spec s{"rd"};
  co_await run_collective(kind, a, s);

  // A type name before the braces makes a temporary, empty or not.
  co_await run_collective(kind, a, Spec{"rd"});  // await-temporary
  co_await run_collective(kind, a, Spec{});  // await-temporary

  // Empty braces pass a default span and carry no destructor: fine.
  co_await send(1, 7, 64);
}
