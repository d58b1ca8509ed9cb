package repro.rl

import repro.core.Rng

/** DDPG (Lillicrap et al., ICLR'16) specialised to the paper's MDP:
  * continuous scalar action (the edge weight), small dense networks.
  *
  * Hyper-parameters follow Section V-A: replay memory 10,000, batch N=128,
  * Adam with learning rate 1e-3, discount γ=0.99. Target networks are
  * soft-updated. States (and the action fed to the critic) are normalized
  * with running standardizers — the paper's batch-norm substitute.
  */
final class DDPG(
    val stateDim: Int,
    seed: Long,
    val gamma: Double = 0.99,
    val batch: Int = 128,
    replayCapacity: Int = 10000,
    lr: Double = 1e-3,
    softTau: Double = 0.01,
) extends Serializable {

  private val rng = new Rng(seed)
  val stateStd  = new Standardizer(stateDim)
  val actionStd = new Standardizer(1)

  val actor        = new ActorNet(stateDim, rng)
  val critic       = new CriticNet(stateDim, rng)
  private val targetActor  = new ActorNet(stateDim, rng)
  private val targetCritic = new CriticNet(stateDim, rng)
  targetActor.copyFrom(actor)
  targetCritic.copyFrom(critic)

  private val actorAdam  = new Adam(actor.params.length, lr)
  private val criticAdam = new Adam(critic.params.length, lr)
  private val replay = new ReplayBuffer(replayCapacity)

  private var trainSteps = 0L
  def trainedSteps: Long = trainSteps

  /** Deterministic policy action for a raw state. */
  def act(state: Array[Double]): Double = actor.forward(stateStd.normalize(state))

  /** Exploration action: Gaussian noise, floored so the weight stays > 0
    * and capped so one early outlier cannot poison the running action
    * statistics or the replay memory. */
  def actExplore(state: Array[Double], sigma: Double): Double =
    math.min(1e4, math.max(0.1, act(state) + sigma * rng.nextGaussian()))

  /** Record a transition and feed the normalizers. */
  def observe(t: Transition): Unit = {
    stateStd.update(t.s)
    actionStd.update(Array(t.a))
    replay.add(t)
  }

  private def criticInput(sNorm: Array[Double], a: Double): Array[Double] = {
    val z = java.util.Arrays.copyOf(sNorm, stateDim + 1)
    z(stateDim) = (a - actionStd.mean(0)) / Standardizer.safeStd(actionStd.std(0))
    z
  }

  /** One gradient update on a sampled minibatch (no-op until the replay
    * memory holds a full batch). */
  def trainStep(): Unit = {
    if (replay.size < batch) return
    trainSteps += 1
    val ts = replay.sample(batch, rng)

    // --- critic: minimise mean (y − Q(s,a))², y = r + γ·Q'(s', μ'(s'))
    val criticGrad = new Array[Double](critic.params.length)
    var i = 0
    while (i < batch) {
      val t = ts(i)
      val sN  = stateStd.normalize(t.s)
      val s2N = stateStd.normalize(t.s2)
      val a2  = targetActor.forward(s2N)
      val y   = if (t.done) t.r
                else t.r + gamma * targetCritic.forward(criticInput(s2N, a2))
      val z   = criticInput(sN, t.a)
      val q   = critic.forward(z)
      critic.backward(z, 2.0 * (q - y) / batch, criticGrad)
      i += 1
    }
    criticAdam.step(critic.params, criticGrad)

    // --- actor: minimise −mean Q(s, μ(s))
    val actorGrad = new Array[Double](actor.params.length)
    val aStd = Standardizer.safeStd(actionStd.std(0))
    i = 0
    while (i < batch) {
      val t = ts(i)
      val sN = stateStd.normalize(t.s)
      val a  = actor.forward(sN)
      val z  = criticInput(sN, a)
      val scratch = new Array[Double](critic.params.length) // unused grads
      val dz = critic.backward(z, 1.0, scratch)
      // dQ/da = dQ/dz_action · dz_action/da (action is standardized in z);
      // clipped so the unbounded linear actor cannot run away on critic
      // extrapolation outside the explored action range
      val dqda = math.max(-1.0, math.min(1.0, dz(stateDim) / aStd))
      actor.gradParams(sN, -dqda / batch, actorGrad)
      i += 1
    }
    actorAdam.step(actor.params, actorGrad)

    targetActor.softUpdate(actor, softTau)
    targetCritic.softUpdate(critic, softTau)
  }
}
