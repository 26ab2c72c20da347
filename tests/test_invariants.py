import ast
import textwrap

from child_process import SRC, run_python


def _exits_outside_main_block(tree: ast.Module) -> list[ast.AST]:
    """`raise SystemExit` and `sys.exit(...)` nodes not under `if __name__ == "__main__":`."""
    guarded = {id(inner) for node in ast.walk(tree)
               if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
               for inner in ast.walk(node)}
    return [node for node in ast.walk(tree) if id(node) not in guarded
            and (isinstance(node, ast.Raise) and ast.unparse(node).startswith("raise SystemExit")
                 or isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit")]


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one; and
    # every self-check raises InvariantError, the fault the -O tests count,
    # never a bare AssertionError.  Exit decisions stay in cli.main, which
    # returns its code: only a __main__ block may exit the process
    modules = sorted((SRC / "modrecip").glob("*.py"))
    assert modules
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in modules}
    found = [f"{name}:{node.lineno}"
             for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and ast.unparse(node).startswith("raise AssertionError")]
    found += [f"{name}:{node.lineno}" for name, tree in trees.items()
              for node in _exits_outside_main_block(tree)]
    assert found == []


def test_only_the_value_base_writes_the_value_contract():
    # InverseOutcome and GaussianInteger inherit immutability, equality, hashing
    # and pickling from core._Value; a second hand-written copy would drift
    contract = {"__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__"}
    writers = {f"{path.stem}.{node.name}"
               for path in sorted((SRC / "modrecip").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ClassDef)
               and contract & {item.name for item in node.body if isinstance(item, ast.FunctionDef)}}
    assert writers == {"core._Value"}


def test_identity_post_checks_survive_optimize_flag():
    # planted faults must still be caught when the interpreter strips asserts:
    # a wrong inverse breaks the square forms' agreement and the linear
    # Gaussian inverse, a wrong rounding breaks the remainder norm bound
    script = textwrap.dedent("""
        from modrecip import gaussian, identities
        from modrecip.core import InvariantError
        from modrecip.gaussian import GaussianInteger as G

        def caught(call, cases):
            count = 0
            for case in cases:
                try:
                    call(*case)
                except InvariantError:
                    count += 1
            return count

        identities.inverse = lambda a, m: pow(a, -1, m) + 1
        gaussian.inverse_pair = lambda a, b: (pow(a, -1, b) + 1, pow(b, -1, a) + 1)
        gaussian._round_half_down = lambda num, den: 0
        print(__debug__,
              caught(identities.square_inverse, ((7, 3), (5, 2))),
              caught(gaussian.inverse_mod_gaussian_linear, ((3, 2), (7, 1))),
              caught(gaussian.gaussian_divmod, ((G(5, 5), G(1, 1)), (G(7, -2), G(2, 1)))))
    """)
    assert _run_optimized(script) == ["False", "2", "2", "2"]


def test_inverse_pair_checks_survive_optimize_flag():
    # a wrong inverse of a mod b must make the pair raise, not hand back a
    # wrong partner: off by one it breaks the exact division, shifted by the
    # modulus it pushes the partner out of its window
    script = textwrap.dedent("""
        from modrecip import core
        from modrecip.core import InvariantError

        real = core.inverse

        def messages(plant, cases):
            core.inverse = plant
            found = []
            for a, b in cases:
                try:
                    core.inverse_pair(a, b)
                except InvariantError as exc:
                    found.append(str(exc).split()[-1])
            core.inverse = real
            return ",".join(found)

        cases = ((7, 3), (-5, 12), (2**200 + 1, 3**120), (-11, -4))
        print(__debug__,
              messages(lambda a, m: real(a, m) + 1, cases),
              messages(lambda a, m: real(a, m) + m, cases))
    """)
    assert _run_optimized(script) == [
        "False", "b,b,b,b", "window,window,window,window"]


def test_batch_climb_check_survives_optimize_flag():
    # a climb that leaves the descent's batches must be caught by the final
    # check, through inverse as through the route, when asserts are stripped;
    # so must one whose inverse is right but whose partner is not, through
    # every caller of the pair
    script = textwrap.dedent("""
        import math
        import random
        from modrecip import core, recip
        from modrecip.core import InvariantError

        descend = core._batched_descent

        def corrupted(entry, position):
            # add one to one entry of one recorded step matrix
            def descent(x, y):
                x, y, steps = descend(x, y)
                i = position(len(steps))
                step = list(steps[i])
                step[entry] += 1
                steps[i] = tuple(step)
                return x, y, steps
            return descent

        rng = random.Random(4096)
        pairs = []
        while len(pairs) < 4:
            a, m = rng.getrandbits(4096) | 1 << 4095, rng.getrandbits(4096) | 1 << 4095
            if math.gcd(a, m) == 1:
                sa, sm = ((1, 1), (1, -1), (-1, 1), (-1, -1))[len(pairs)]
                pairs.append((sa * a, sm * m))

        def caught(call):
            count = 0
            for a, m in pairs:
                try:
                    call(a, m)
                except InvariantError:
                    count += 1
            return count

        # u0 of a middle step: the climb's inverse goes wrong
        core._batched_descent = corrupted(0, lambda n: n // 2)
        climb = caught(core.inverse), caught(recip.inverse_via_reciprocity)
        # v1 of the outermost step moves only the top V, so only the partner
        core._batched_descent = corrupted(3, lambda n: 0)
        partner = (caught(core.inverse), caught(core.inverse_pair),
                   caught(recip.solve_diophantine))
        print(__debug__, *climb, *partner)
    """)
    assert _run_optimized(script) == ["False", "4", "4", "4", "4", "4"]


def test_post_condition_survives_optimize_flag():
    # a wrong unit base case must be caught by the final check even when
    # the interpreter strips asserts
    script = textwrap.dedent("""
        from modrecip import core, recip
        from modrecip.core import InvariantError

        right = core.unit_inverse
        core.unit_inverse = lambda a, m: right(a, m) + 1
        caught = 0
        for a, m in ((7, 22), (3, -5), (-2, -5), (97, 89)):
            try:
                recip.inverse_via_reciprocity(a, m)
            except InvariantError:
                caught += 1
        print(__debug__, caught)
    """)
    assert _run_optimized(script) == ["False", "4"]


def _run_optimized(script: str) -> list[str]:
    """Run script in a python -O child and return its stdout words."""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()
