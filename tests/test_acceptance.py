"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything runs on the deterministic offline stack (rule extractor,
template generator, mock completion); no network access is required or
attempted, which criterion 10 enforces with a socket guard.
"""

import itertools
import json
import math
import queue
import random
import socket
import threading

from scipy import integrate

from examgraph.assessment import (
    DifficultyTier,
    FEATURE_ORDER,
    IrtParams,
    RubricConfig,
    build_lexicon,
    irt_probability,
    rate_features,
    total_difficulty,
    weighted_difficulty,
)
from examgraph.bus import (
    MessageBus,
    TcpBusClient,
    TcpBusServer,
    decode_frame,
    encode_frame,
    run_pipeline,
)
from examgraph.generation import (
    ExamBlueprint,
    QuestionItem,
    TemplateGenerator,
    allocate_counts,
    allocation_ratios,
    generate_exam,
)
from examgraph.ingestion import RuleExtractor
from examgraph.kg import EdgeKind, GraphRegistry, NodeKind
from examgraph.psychometrics import (
    ResponseMatrix,
    f_survival,
    item_discrimination,
    item_p_value,
    one_way_anova,
    reg_incomplete_beta,
    two_way_anova,
)
from examgraph.ranking import pagerank

from helpers import ROOTS_A, ROOTS_B, blueprint_dict, build_registry
from test_bus import random_message
from test_psychometrics import brute_force_discrimination, brute_force_two_way
from test_ranking import graph_from_edges, naive_pagerank


def test_acceptance_1_three_pl_identities():
    rng = random.Random(1001)
    for _ in range(1000):
        a = rng.uniform(0.2, 3.0)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(0.0, 0.95)
        params = IrtParams(a=a, b=b, c=c)
        midpoint = irt_probability(b, params)
        assert abs(midpoint - (c + (1.0 - c) / 2.0)) <= 1e-12

    grid_params = [IrtParams(a=1.9, b=-0.4, c=0.18)] + [
        IrtParams(a=rng.uniform(0.5, 2.5), b=rng.uniform(-2, 2),
                  c=rng.uniform(0, 0.4))
        for _ in range(4)
    ]
    for params in grid_params:
        previous = -1.0
        for i in range(1000):
            theta = -6.0 + 12.0 * i / 999
            p = irt_probability(theta, params)
            assert p > previous, "3PL must be strictly increasing in theta"
            previous = p

        h = 1e-5
        for theta in [-2.5, -1.0, -0.4, 0.0, 0.8, 2.0]:
            numeric = (irt_probability(theta + h, params)
                       - irt_probability(theta - h, params)) / (2 * h)
            sigma = 1.0 / (1.0 + math.exp(-params.a * (theta - params.b)))
            analytic = params.a * (1.0 - params.c) * sigma * (1.0 - sigma)
            assert abs(numeric - analytic) <= 1e-6
    print("ACCEPTANCE 1: PASS - 3PL midpoint identity (1e-12), "
          "monotonicity, derivative check (1e-6)")


def test_acceptance_2_pagerank_against_oracle():
    for n in range(2, 21):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        graph, _ = graph_from_edges(n, cycle)
        assert all(abs(s - 1.0) <= 1e-9 for s in pagerank(graph).scores.values())
        complete_edges = [(i, j) for i in range(n) for j in range(n) if i != j]
        graph, _ = graph_from_edges(n, complete_edges)
        assert all(abs(s - 1.0) <= 1e-9 for s in pagerank(graph).scores.values())

    graph, ids = graph_from_edges(3, [(0, 2), (1, 2)])
    scores = pagerank(graph).scores
    assert abs(scores[ids[0]] - 0.15) <= 1e-9
    assert abs(scores[ids[1]] - 0.15) <= 1e-9
    assert abs(scores[ids[2]] - 0.405) <= 1e-9

    rng = random.Random(2002)
    for _ in range(100):
        n = rng.randint(2, 50)
        possible = [(i, j) for i in range(n) for j in range(n) if i != j]
        edges = rng.sample(possible, min(len(possible), rng.randint(1, 3 * n)))
        graph, ids = graph_from_edges(n, edges)
        expected = naive_pagerank(list(range(n)), edges)
        actual = pagerank(graph).scores
        for i in range(n):
            assert abs(actual[ids[i]] - expected[i]) <= 1e-8
    print("ACCEPTANCE 2: PASS - symmetric graphs at 1.0 (1e-9), dangling "
          "example (0.15, 0.15, 0.405), 100 random graphs vs oracle (1e-8)")


def test_acceptance_3_rubric_aggregation_exhaustive():
    rng = random.Random(3003)
    for combo in itertools.product((1, 2, 3), repeat=7):
        ratings = dict(zip(FEATURE_ORDER, combo))
        total = total_difficulty(ratings)
        assert 7 <= total <= 21
        assert weighted_difficulty(ratings) == total

        weights = {f: rng.uniform(0.1, 2.0) for f in FEATURE_ORDER}
        d = weighted_difficulty(ratings, weights)
        target = rng.uniform(7.0, 21.0)
        epsilon = rng.uniform(0.5, 3.0)
        direct = sum(weights[f] * ratings[f] for f in FEATURE_ORDER)
        assert abs(d - direct) <= 1e-12
        assert (abs(d - target) <= epsilon) == (abs(direct - target) <= epsilon)
    print("ACCEPTANCE 3: PASS - all 2187 rating vectors: T in [7,21], "
          "unit-weight identity, gate matches direct recomputation")


def test_acceptance_4_blueprint_allocation():
    rng = random.Random(4004)
    for _ in range(500):
        k = rng.randint(1, 12)
        counts = [rng.randint(0, 50) for _ in range(k)]
        if sum(counts) == 0:
            counts[rng.randrange(k)] = 1
        ratios = allocation_ratios(counts)
        assert abs(sum(ratios) - 1.0) <= 1e-12
        n = rng.randint(1, 100)
        allocated = allocate_counts(ratios, n)
        assert sum(allocated) == n
        for count, ratio in zip(allocated, ratios):
            assert abs(count - ratio * n) < 1.0
    print("ACCEPTANCE 4: PASS - 500 random count vectors: ratios sum to 1 "
          "(1e-12), largest-remainder counts conserve N within 1 per cell")


def test_acceptance_5_cross_subject_isolation():
    registry = GraphRegistry()
    _, _, vocab_a = build_registry("subject_a", ROOTS_A, 3, registry)
    _, _, vocab_b = build_registry("subject_b", ROOTS_B, 3, registry)
    assert not vocab_a & vocab_b

    rng = random.Random(5005)
    for subject, own_vocab in (("subject_a", vocab_a), ("subject_b", vocab_b)):
        graph = registry.get(subject)
        nodes = graph.nodes()
        hits = 0
        for _ in range(1000):
            node = rng.choice(nodes)
            direction = rng.choice(["in", "out", "both"])
            kind = rng.choice([None, *EdgeKind])
            for _, neighbor in graph.query_neighbors(node.id, direction, kind):
                hits += 1
                if neighbor.kind != NodeKind.HIERARCHY:
                    assert set(neighbor.label.split()) <= own_vocab, \
                        f"{neighbor.label!r} leaked across subjects"
        assert hits > 0
    print("ACCEPTANCE 5: PASS - 1000 random queries per subject return zero "
          "foreign nodes")


def test_acceptance_6_end_to_end_determinism_and_gating():
    registry, _, _ = build_registry("envsci", ROOTS_A, 3)
    graph = registry.get("envsci")
    blueprint = ExamBlueprint.from_dict(blueprint_dict())
    rubric = RubricConfig()

    exams = [
        generate_exam(registry, blueprint, TemplateGenerator(graph, seed=42),
                      rubric, seed=42)
        for _ in range(2)
    ]
    assert exams[0].to_json().encode("utf-8") == exams[1].to_json().encode("utf-8")

    exam = exams[0]
    assert len(exam.items) == 30
    assert exam.unfilled == []

    lexicon = build_lexicon(graph)
    tier_totals: dict = {}
    for payload in exam.items:
        tier = DifficultyTier(payload["tier"])
        item = QuestionItem.from_payload(payload)
        result = rubric.evaluate(item, rubric.tiers[tier], lexicon)
        assert abs(result.difficulty - rubric.tiers[tier]) <= rubric.epsilon
        assert result.difficulty == payload["difficulty"]
        tier_totals.setdefault(tier, []).append(result.difficulty)

    means = {tier: sum(v) / len(v) for tier, v in tier_totals.items()}
    assert means[DifficultyTier.BASIC_RECALL] \
        < means[DifficultyTier.APPLIED_UNDERSTANDING] \
        < means[DifficultyTier.COMPREHENSIVE_ANALYSIS]
    print("ACCEPTANCE 6: PASS - 30/30 items, byte-identical reruns at seed "
          f"42, all gates within epsilon, mean T ordered "
          f"{means[DifficultyTier.BASIC_RECALL]:.2f} < "
          f"{means[DifficultyTier.APPLIED_UNDERSTANDING]:.2f} < "
          f"{means[DifficultyTier.COMPREHENSIVE_ANALYSIS]:.2f}")


def test_acceptance_7_psychometrics_oracles():
    rng = random.Random(7007)
    for _ in range(50):
        rows = [[rng.randint(0, 1) for _ in range(30)] for _ in range(100)]
        matrix = ResponseMatrix([f"p{i:03d}" for i in range(100)],
                                [f"q{j:02d}" for j in range(30)], rows)
        for idx, item in enumerate(matrix.items):
            expected_p = sum(row[idx] for row in rows) / 100
            assert item_p_value(matrix, item) == expected_p
            assert item_discrimination(matrix, item) == \
                brute_force_discrimination(matrix, item)

    for _ in range(20):
        groups = [[rng.gauss(mu, 1.0) for _ in range(rng.randint(3, 10))]
                  for mu in [0.0, rng.uniform(-1, 1), rng.uniform(-1, 1)]]
        result = one_way_anova(groups)
        n_total = sum(len(g) for g in groups)
        grand = sum(sum(g) for g in groups) / n_total
        ss_b = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in groups)
        ss_w = sum(sum((x - sum(g) / len(g)) ** 2 for x in g) for g in groups)
        assert abs(result.ss_between - ss_b) <= 1e-9 * max(1.0, abs(ss_b))
        assert abs(result.ss_within - ss_w) <= 1e-9 * max(1.0, abs(ss_w))
        assert abs(result.ss_between + result.ss_within - result.ss_total) \
            <= 1e-9 * max(1.0, result.ss_total)

    for _ in range(20):
        a, b, n = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 6)
        cells = [[[rng.gauss(i * 0.5 - j * 0.25, 1.0) for _ in range(n)]
                  for j in range(b)] for i in range(a)]
        result = two_way_anova(cells)
        ss_a, ss_b, ss_ab, ss_resid, ss_total = brute_force_two_way(cells)
        for got, want in [(result.factor_a.ss, ss_a), (result.factor_b.ss, ss_b),
                          (result.interaction.ss, ss_ab),
                          (result.ss_residual, ss_resid),
                          (result.ss_total, ss_total)]:
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    hand = one_way_anova([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert abs(hand.f_stat - 3.0) <= 1e-12
    assert (hand.df_between, hand.df_within) == (2, 6)

    def beta_quadrature(x, a, b):
        ln_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        value, _ = integrate.quad(
            lambda t: math.exp((a - 1) * math.log(t)
                               + (b - 1) * math.log1p(-t) - ln_norm),
            0.0, x, limit=200)
        return value

    for f_stat, d1, d2 in [(3.0, 2, 6), (1.7, 4, 30), (6.2, 3, 12), (0.4, 9, 5)]:
        x = d2 / (d2 + d1 * f_stat)
        assert abs(f_survival(f_stat, d1, d2)
                   - beta_quadrature(x, d2 / 2, d1 / 2)) <= 1e-8

    assert reg_incomplete_beta(0.0, 3.0, 4.0) == 0.0
    assert reg_incomplete_beta(1.0, 3.0, 4.0) == 1.0
    assert reg_incomplete_beta(0.5, 1.0, 1.0) == 0.5
    assert reg_incomplete_beta(0.25, 1.0, 1.0) == 0.25
    print("ACCEPTANCE 7: PASS - item stats exact vs brute force (50 "
          "matrices), ANOVA SS oracles (1e-9 rel), F=3.0 hand example, "
          "f_survival vs quadrature (1e-8), beta identities exact")


def test_acceptance_8_directional_two_way_anova():
    # published mean P values per (passage, difficulty group), SD 0.05
    cell_means = [
        [0.76, 0.83, 0.75, 0.63],  # passage A: ACT, Low, Medium, High
        [0.73, 0.84, 0.73, 0.61],  # passage B
        [0.73, 0.79, 0.74, 0.62],  # passage C
    ]
    rng = random.Random(8008)
    n = 30
    # factor A = difficulty group (4 levels), factor B = passage (3 levels)
    cells = [[[rng.gauss(cell_means[j][i], 0.05) for _ in range(n)]
              for j in range(3)] for i in range(4)]
    result = two_way_anova(cells)
    assert result.factor_a.df == 3
    assert result.factor_b.df == 2
    assert result.df_residual == 4 * 3 * (n - 1)
    assert result.factor_a.p < 0.001, "difficulty main effect must be strong"
    assert result.factor_b.p < 0.05, "passage effect must be significant"
    print("ACCEPTANCE 8: PASS - synthetic published-mean design: difficulty "
          f"effect p={result.factor_a.p:.2e} < .001, passage effect "
          f"p={result.factor_b.p:.4f} < .05")


def test_acceptance_9_bus_fifo_codec_and_tcp_equivalence():
    # FIFO: 10 publishers x 1000 messages each, 10 subscribers
    bus = MessageBus(queue_capacity=200_000)
    subscribers = [bus.subscribe(f"sub{i}", "fifo/*") for i in range(10)]
    publishers = 10
    per_publisher = 1000

    def publish(idx):
        for k in range(per_publisher):
            bus.publish(f"fifo/t{idx % 3}", {"k": k}, sender=f"pub{idx}")

    threads = [threading.Thread(target=publish, args=(i,)) for i in range(publishers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    violations = 0
    for sub in subscribers:
        last: dict = {}
        received = 0
        while True:
            try:
                message = sub.get(timeout=0.2)
            except queue.Empty:
                break
            if message is None:
                break
            received += 1
            key = (message.sender, message.topic)
            if message.seq <= last.get(key, 0):
                violations += 1
            last[key] = message.seq
        assert received == publishers * per_publisher
    assert violations == 0
    bus.close()

    rng = random.Random(9009)
    for _ in range(1000):
        message = random_message(rng)
        assert decode_frame(encode_frame(message)) == message

    # TCP loopback pipeline vs in-process pipeline, byte for byte
    registry, lexicon, _ = build_registry("envsci", ROOTS_A, 1)
    blueprint = {"subject": "envsci", "sections": [
        {"chapter": "Ch 1", "count": 3,
         "tiers": {"basic": 1, "applied": 1, "comprehensive": 1}}]}

    def run_in_process():
        local_bus = MessageBus()
        pipeline = run_pipeline(local_bus, registry, RuleExtractor(lexicon))
        sub = local_bus.subscribe("watcher", "exam/complete")
        local_bus.publish("exam/request", {"blueprint": blueprint, "seed": 42},
                          sender="client", correlation_id="r1")
        message = sub.get(timeout=30)
        pipeline.stop()
        local_bus.close()
        return message.payload

    def run_over_tcp():
        local_bus = MessageBus()
        pipeline = run_pipeline(local_bus, registry, RuleExtractor(lexicon))
        server = TcpBusServer(local_bus)
        server.start()
        client = TcpBusClient("127.0.0.1", server.port, "requirement-client",
                              subscriptions=["exam/complete"])
        client.publish("exam/request", {"blueprint": blueprint, "seed": 42},
                       correlation_id="r1")
        while True:
            message = client.get(timeout=30)
            assert message is not None
            if message.topic == "exam/complete":
                payload = message.payload
                break
        client.close()
        server.stop()
        pipeline.stop()
        local_bus.close()
        return payload

    in_process = run_in_process()
    over_tcp = run_over_tcp()
    assert json.dumps(over_tcp, sort_keys=True).encode() == \
        json.dumps(in_process, sort_keys=True).encode()
    print("ACCEPTANCE 9: PASS - zero FIFO violations over 10x10x10000, 1000 "
          "codec round-trips, TCP loopback exam byte-identical to in-process")


def test_acceptance_10_offline_guarantee():
    real_connect = socket.socket.connect
    attempts = []

    def guarded_connect(self, address):
        host = address[0] if isinstance(address, tuple) else address
        if isinstance(host, str) and host not in ("127.0.0.1", "localhost", "::1"):
            attempts.append(address)
            raise OSError(f"external network blocked in offline test: {address}")
        return real_connect(self, address)

    socket.socket.connect = guarded_connect
    try:
        registry, lexicon, _ = build_registry("envsci", ROOTS_A, 3)
        graph = registry.get("envsci")
        blueprint = ExamBlueprint.from_dict(blueprint_dict())
        exam = generate_exam(registry, blueprint,
                             TemplateGenerator(graph, seed=11),
                             RubricConfig(), seed=11)
        assert len(exam.items) == 30

        # the mock gateway serves both prompt shapes without a provider
        from examgraph.gateway import CompletionRequest, mock_complete
        from examgraph.generation import LLMGenerator
        from examgraph.ingestion import LLMExtractor

        extractor = LLMExtractor(lambda s, u: mock_complete(
            3, CompletionRequest(s, u)))
        result = extractor.extract("Overfishing harms the reef.")
        assert result.triples == [("overfishing", "harms", "reef")]

        from examgraph.assessment import BloomLevel
        from examgraph.generation import assemble_material

        chapter = graph.find_node("Ch 1", NodeKind.HIERARCHY)
        bundle = assemble_material(graph, chapter)[0]
        generator = LLMGenerator(lambda s, u: mock_complete(
            3, CompletionRequest(s, u)))
        item = generator.generate(bundle, DifficultyTier.BASIC_RECALL,
                                  BloomLevel.REMEMBER, 0)
        assert len(item.options) == 4
        assert not attempts, f"external connections attempted: {attempts}"
    finally:
        socket.socket.connect = real_connect
    print("ACCEPTANCE 10: PASS - full mock-stack flow (graph build, exam "
          "generation, both LLM seams) with external network blocked")
