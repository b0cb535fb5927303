import pytest

from conicring import (
    ParseError,
    RingElement,
    parse_ring_expression,
    render_element,
)


def evaluate(text: str) -> str:
    return render_element(parse_ring_expression(text))


class TestEvaluation:
    def test_zero_divisor_identity(self):
        assert evaluate("(P1 - [(-1,-1)]) * [(-1,-1)]") == "0"

    def test_square_expansion(self):
        assert evaluate("(P1 - [(-1,-1)])^2") == "C(0)[L]^2 - C({2,inf})[L]^1"

    def test_one_is_identity(self):
        x = "[(-1,-1),(-1,3)]"
        assert evaluate(f"1 * {x}") == evaluate(x)

    def test_empty_product_is_identity(self):
        assert evaluate("[]") == "C(0)"

    def test_integer_literals(self):
        assert evaluate("2 + 3") == "5*C(0)"
        assert evaluate("0") == "0"
        assert evaluate("1 - 1") == "0"

    def test_unary_minus(self):
        assert evaluate("-P1 + P1") == "0"
        assert evaluate("--P1") == "C(0)[L]^1"

    def test_precedence(self):
        assert evaluate("1 + 2 * 3") == "7*C(0)"
        assert evaluate("2 * P1^2") == "2*C(0)[L]^2"

    def test_rational_coefficients_in_conics(self):
        assert evaluate("[(-1/2, 3)]") == evaluate("[(-2, 3)]")

    def test_square_classes_collapse(self):
        assert evaluate("[(4, 9)] - P1") == "0"

    def test_power_of_product(self):
        # [C]^2 = C(G)[L]^1 for one-dimensional G
        assert evaluate("[(-1,-1)]^2") == "C({2,inf})[L]^1"

    def test_comments_and_newlines(self):
        text = "# a comment\n(P1\n - [(-1,-1)])  # trailing\n * [(-1,-1)]\n"
        assert evaluate(text) == "0"

    def test_pow_zero(self):
        assert evaluate("[(-1,-1)]^0") == "C(0)"


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "P2",
            "(P1",
            "P1 +",
            "[(1,2),]",
            "[(1 2)]",
            "[(0,1)]",
            "P1 ^ -1",
            "P1 ^ 1/2",
            "1/2",
            "P1 P1",
            "@",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_ring_expression(text)

    @pytest.mark.parametrize("text", ["(" * 400 + "P1" + ")" * 400, "-" * 2000 + "P1"],
                             ids=["parentheses", "minus-signs"])
    def test_nested_too_deeply(self, text):
        with pytest.raises(ParseError, match="nested too deeply") as excinfo:
            parse_ring_expression(text)
        assert excinfo.value.line == 1
        assert 1 < excinfo.value.column < len(text)

    def test_moderate_nesting_evaluates(self):
        assert evaluate("(" * 150 + "P1" + ")" * 150) == "C(0)[L]^1"

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_ring_expression("P1 +\n@ 3")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 1


class TestRoundTrip:
    def test_canonical_output_reparses_to_nothing_new(self):
        # the renderer's output is not input syntax; instead check stability
        # of evaluation under re-association
        x = parse_ring_expression("(P1 - [(-1,-1)]) * (P1 + [(-1,3)])")
        y = parse_ring_expression("P1*P1 + P1*[(-1,3)] - [(-1,-1)]*P1 - [(-1,-1)]*[(-1,3)]")
        assert x == y
        assert isinstance(x, RingElement)
